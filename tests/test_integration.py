"""End-to-end integration tests: C source → CUDA + tuning + verification."""

import numpy as np

from repro import api
from repro.core.config import BlockingConfig
from repro.frontend.stencil_detect import parse_stencil
from repro.ir.classify import StencilShape
from repro.ir.stencil import GridSpec
from repro.sim.executor import verify_blocking
from repro.stencils.library import BENCHMARKS, figure6_benchmarks, load_pattern
from repro.tuning.autotuner import AutoTuner


def test_every_benchmark_compiles_to_cuda():
    """All 21 Table-3 stencils go through the full frontend → codegen path."""
    for name, benchmark in BENCHMARKS.items():
        bS = (64,) if benchmark.ndim == 2 else (16, 16)
        bT = 2 if benchmark.radius <= 2 else 1
        compiled = api.compile_stencil(name, bT=bT, bS=bS)
        assert "__global__" in compiled.kernel_source, name
        assert compiled.kernel_source.count("{") == compiled.kernel_source.count("}"), name
        assert "STORE(" in compiled.kernel_source, name


def test_every_2d_benchmark_verifies_functionally():
    """Blocked execution equals the reference for every 2D benchmark."""
    for name, benchmark in BENCHMARKS.items():
        if benchmark.ndim != 2:
            continue
        pattern = load_pattern(name)
        block = 32 + 16 * benchmark.radius
        config = BlockingConfig(bT=2, bS=(block,))
        grid = GridSpec((64, 64), 5)
        assert verify_blocking(pattern, grid, config).matches, name


def test_every_3d_benchmark_verifies_functionally():
    for name, benchmark in BENCHMARKS.items():
        if benchmark.ndim != 3:
            continue
        pattern = load_pattern(name)
        block = 8 + 8 * benchmark.radius
        config = BlockingConfig(bT=1, bS=(block, 16))
        grid = GridSpec((12, 40, 40), 3)
        assert verify_blocking(pattern, grid, config).matches, name


def test_custom_stencil_end_to_end(tmp_path):
    """A user-written heat equation goes from C source to verified CUDA."""
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[(t+1)%2][i][j] = 0.125f * A[t%2][i-1][j] + 0.125f * A[t%2][i+1][j]
              + 0.125f * A[t%2][i][j-1] + 0.125f * A[t%2][i][j+1]
              + 0.5f * A[t%2][i][j];
    """
    detected = parse_stencil(source, name="heat2d")
    pattern = detected.pattern
    assert pattern.shape is StencilShape.STAR and pattern.associative

    config = BlockingConfig(bT=4, bS=(64,))
    compiled = api.compile_stencil(pattern, config=config)
    cuda_file = tmp_path / "heat2d.cu"
    cuda_file.write_text(compiled.cuda.full_source)
    assert cuda_file.stat().st_size > 1000

    assert verify_blocking(pattern, GridSpec((80, 80), 12), config).matches

    prediction = api.predict(pattern, config, gpu="V100", grid=(8192, 8192), time_steps=100)
    measurement = api.simulate(pattern, config, gpu="V100", grid=(8192, 8192), time_steps=100)
    assert 0 < measurement.gflops < prediction.gflops


def test_fig6_pipeline_for_one_stencil():
    """One full Fig. 6 column: all frameworks on one stencil and device."""
    name = "j2d5pt"
    grid = (8192, 8192)
    results = {
        "Loop Tiling": api.baseline("loop", name, "V100", grid=grid, time_steps=120).gflops,
        "Hybrid Tiling": api.baseline("hybrid", name, "V100", grid=grid, time_steps=120).gflops,
        "STENCILGEN": api.baseline("stencilgen", name, "V100", grid=grid, time_steps=120).gflops,
        "AN5D (Sconf)": api.simulate(name, api.sconf(name), "V100", grid=grid, time_steps=120).gflops,
    }
    tuned = api.tune(name, gpu="V100", grid=grid, time_steps=120)
    results["AN5D (Tuned)"] = tuned.best.measured_gflops
    results["AN5D (Model)"] = tuned.best.predicted_gflops

    assert min(results.values()) == results["Loop Tiling"]
    assert results["AN5D (Tuned)"] >= results["STENCILGEN"]
    assert results["AN5D (Model)"] >= results["AN5D (Tuned)"]


def test_tuned_configurations_scale_with_stencil_order():
    """Fig. 9: optimal bT decreases as the stencil order increases."""
    tuner = AutoTuner("V100", top_k=3)
    grid = GridSpec((8192, 8192), 120)
    best_bt = {}
    for radius in (1, 4):
        pattern = load_pattern(f"star2d{radius}r")
        best_bt[radius] = tuner.tune(pattern, grid).best_config.bT
    assert best_bt[1] >= best_bt[4]


def test_generated_code_reflects_tuned_configuration():
    tuned = api.tune("j2d5pt", gpu="V100", grid=(8192, 8192), time_steps=120)
    compiled = api.compile_stencil("j2d5pt", config=tuned.best_config)
    assert f"bT={tuned.best_config.bT}" in compiled.kernel_source
    if tuned.best_config.register_limit is not None:
        assert "__launch_bounds__" in compiled.kernel_source
