"""Tests for the performance model (GPU specs, threads, traffic, registers,
occupancy, roofline)."""

import math

import pytest

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec
from repro.model.gpu_specs import GPUS, get_gpu
from repro.model.occupancy import occupancy_for, paper_sm_efficiency
from repro.model.registers import (
    effective_registers,
    estimate_registers,
    register_pressure_ok,
    spill_penalty,
    stencilgen_registers,
)
from repro.model.roofline import predict_performance
from repro.model.threads import count_thread_work
from repro.model.traffic import compute_traffic, shared_memory_access_per_thread
from repro.stencils.generators import box_stencil, star_stencil
from repro.stencils.library import load_pattern


# -- GPU specs (Table 4) -----------------------------------------------------


def test_table4_v100_values(v100):
    assert v100.peak_gflops("float") == 15700
    assert v100.peak_gflops("double") == 7850
    assert v100.peak_membw_gbs == 900
    assert v100.measured_membw("float") == 791
    assert v100.measured_smembw("double") == 12750
    assert v100.sm_count == 80


def test_table4_p100_values(p100):
    assert p100.peak_gflops("float") == 10600
    assert p100.measured_membw("double") == 540
    assert p100.measured_smembw("float") == 9700
    assert p100.sm_count == 56


def test_gpu_lookup_aliases():
    assert get_gpu("v100").name == get_gpu("Tesla V100").name
    assert get_gpu("pascal").sm_count == 56
    with pytest.raises(KeyError):
        get_gpu("A100")


def test_p100_shared_efficiency_below_v100(v100, p100):
    # Section 7.2: P100 sustains less than half of V100's effective shared
    # memory bandwidth for the same kernels.
    assert p100.shared_efficiency("float") < 0.6 * v100.shared_efficiency("float")


def test_registry_has_both_devices():
    assert set(GPUS) == {"V100", "P100"}


# -- Table 2: shared memory accesses per thread --------------------------------


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_table2_2d_star(radius):
    access = shared_memory_access_per_thread(star_stencil(2, radius))
    assert access.reads_expected == 2 * radius
    assert access.reads_practical == 2 * radius
    assert access.writes == 1


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_table2_3d_star(radius):
    access = shared_memory_access_per_thread(star_stencil(3, radius))
    assert access.reads_expected == 4 * radius
    assert access.reads_practical == 4 * radius


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_table2_2d_box(radius):
    access = shared_memory_access_per_thread(box_stencil(2, radius))
    column = 2 * radius + 1
    assert access.reads_expected == column**2 - column
    assert access.reads_practical == column - 1
    assert access.writes == 1


@pytest.mark.parametrize("radius", [1, 2])
def test_table2_3d_box(radius):
    access = shared_memory_access_per_thread(box_stencil(3, radius))
    column = 2 * radius + 1
    assert access.reads_expected == column**3 - column
    assert access.reads_practical == column**2 - 1


# -- thread work ------------------------------------------------------------------


def test_thread_work_launch_count(j2d5pt):
    grid = GridSpec((512, 512), 100)
    work = count_thread_work(j2d5pt, grid, BlockingConfig(bT=4, bS=(64,)))
    assert work.launches == 25
    work_uneven = count_thread_work(j2d5pt, grid, BlockingConfig(bT=7, bS=(64,)))
    assert work_uneven.launches == math.ceil(100 / 7)


def test_thread_work_writes_only_valid_cells(j2d5pt):
    grid = GridSpec((512, 512), 100)
    work = count_thread_work(j2d5pt, grid, BlockingConfig(bT=4, bS=(64,)))
    assert work.gm_write == 512 * 512 * 25  # one store per cell per launch


def test_thread_work_reads_include_redundancy(j2d5pt):
    grid = GridSpec((512, 512), 100)
    work = count_thread_work(j2d5pt, grid, BlockingConfig(bT=4, bS=(64,)))
    assert work.gm_read > work.gm_write


def test_compute_scales_with_time_steps(j2d5pt):
    grid_a = GridSpec((512, 512), 100)
    grid_b = GridSpec((512, 512), 200)
    config = BlockingConfig(bT=4, bS=(64,))
    a = count_thread_work(j2d5pt, grid_a, config).compute
    b = count_thread_work(j2d5pt, grid_b, config).compute
    assert b == pytest.approx(2 * a, rel=0.01)


# -- traffic ------------------------------------------------------------------------


def test_global_traffic_drops_with_bt(j2d5pt):
    grid = GridSpec((4096, 4096), 96)
    low = compute_traffic(j2d5pt, grid, BlockingConfig(bT=1, bS=(256,)))
    high = compute_traffic(j2d5pt, grid, BlockingConfig(bT=8, bS=(256,)))
    assert high.global_bytes < 0.25 * low.global_bytes


def test_useful_flops_independent_of_blocking(j2d5pt):
    grid = GridSpec((1024, 1024), 64)
    a = compute_traffic(j2d5pt, grid, BlockingConfig(bT=1, bS=(128,)))
    b = compute_traffic(j2d5pt, grid, BlockingConfig(bT=8, bS=(256,)))
    assert a.useful_flops == b.useful_flops


def test_total_flops_exceed_useful_flops(j2d5pt):
    grid = GridSpec((1024, 1024), 64)
    traffic = compute_traffic(j2d5pt, grid, BlockingConfig(bT=8, bS=(128,)))
    assert traffic.total_flops > traffic.useful_flops


def test_double_precision_doubles_traffic():
    single = load_pattern("star2d1r", "float")
    double = load_pattern("star2d1r", "double")
    grid = GridSpec((1024, 1024), 32)
    config = BlockingConfig(bT=4, bS=(128,))
    a = compute_traffic(single, grid, config)
    b = compute_traffic(double, grid, config)
    assert b.global_bytes == pytest.approx(2 * a.global_bytes)
    assert b.shared_bytes == pytest.approx(2 * a.shared_bytes)


def test_arithmetic_intensity_grows_with_bt(j2d5pt):
    grid = GridSpec((4096, 4096), 96)
    low = compute_traffic(j2d5pt, grid, BlockingConfig(bT=1, bS=(256,)))
    high = compute_traffic(j2d5pt, grid, BlockingConfig(bT=8, bS=(256,)))
    # Useful FLOPs per byte of global-memory traffic.
    assert high.useful_flops / high.global_bytes > low.useful_flops / low.global_bytes


# -- registers (Section 6.3 formula, Fig. 7) ------------------------------------------


def test_register_formula_float(j2d5pt):
    config = BlockingConfig(bT=4, bS=(128,))
    assert estimate_registers(j2d5pt, config) == 4 * 3 + 4 + 20


def test_register_formula_double():
    pattern = load_pattern("j2d5pt", "double")
    config = BlockingConfig(bT=4, bS=(128,))
    assert estimate_registers(pattern, config) == 2 * 4 * 3 + 4 + 30


def test_stencilgen_uses_more_registers(j2d5pt, j2d9pt):
    config = BlockingConfig(bT=4, bS=(128,))
    assert stencilgen_registers(j2d5pt, config) > estimate_registers(j2d5pt, config)
    assert stencilgen_registers(j2d9pt, config) > estimate_registers(j2d9pt, config)


def test_fig7_spilling_behaviour(j2d9pt):
    """At the 32-register cap AN5D does not spill but STENCILGEN does for
    second-order stencils (Fig. 7)."""
    config = BlockingConfig(bT=4, bS=(128,), register_limit=32)
    an5d = effective_registers(j2d9pt, config, "an5d")
    stencilgen = effective_registers(j2d9pt, config, "stencilgen")
    assert not an5d.spilled
    assert stencilgen.spilled


def test_register_pressure_pruning(j2d9pt, v100):
    ok = BlockingConfig(bT=4, bS=(128,))
    # Double precision at high bT and wide blocks exceeds the 64K registers
    # per SM budget and must be pruned (Section 6.3).
    double_pattern = load_pattern("j2d9pt", "double")
    too_big = BlockingConfig(bT=16, bS=(512,))
    assert register_pressure_ok(j2d9pt, ok, v100)
    assert not register_pressure_ok(double_pattern, too_big, v100)


def test_spill_penalty_monotone(j2d9pt):
    # A cap below the simultaneously-live registers forces spilling.
    config = BlockingConfig(bT=8, bS=(128,), register_limit=24)
    estimate = effective_registers(j2d9pt, config)
    demand = estimate_registers(j2d9pt, config)
    assert estimate.spilled
    assert spill_penalty(estimate, demand) > 1.0
    no_limit = effective_registers(j2d9pt, BlockingConfig(bT=8, bS=(128,)))
    assert spill_penalty(no_limit, demand) == 1.0


# -- occupancy --------------------------------------------------------------------------


def test_paper_sm_efficiency_quantisation(v100):
    # 2048/256 = 8 blocks per group: 16 blocks -> 2 full groups -> 1.0
    assert paper_sm_efficiency(16, 256, v100) == 1.0
    # 12 blocks -> floor 1 / ceil 2 = 0.5
    assert paper_sm_efficiency(12, 256, v100) == 0.5
    # fewer blocks than one group -> filled fraction
    assert paper_sm_efficiency(4, 256, v100) == pytest.approx(0.5)


def test_occupancy_limited_by_registers_at_high_bt(j2d5pt, v100):
    grid = GridSpec((16384, 16384), 1000)
    low = occupancy_for(j2d5pt, grid, BlockingConfig(bT=2, bS=(256,)), v100)
    high = occupancy_for(j2d5pt, grid, BlockingConfig(bT=16, bS=(256,)), v100)
    assert high.occupancy <= low.occupancy
    assert high.limiting_factor in ("registers", "threads")


def test_occupancy_full_for_small_blocks(j2d5pt, v100):
    grid = GridSpec((16384, 16384), 1000)
    result = occupancy_for(j2d5pt, grid, BlockingConfig(bT=1, bS=(128,)), v100)
    assert result.occupancy == 1.0


def test_occupancy_wave_efficiency_bounded(j2d5pt, v100):
    grid = GridSpec((2048, 2048), 8)
    result = occupancy_for(j2d5pt, grid, BlockingConfig(bT=4, bS=(256,)), v100)
    assert 0.0 < result.wave_efficiency <= 1.0


# -- roofline ---------------------------------------------------------------------------


def test_roofline_bottleneck_is_shared_memory_for_high_bt(j2d5pt, v100, eval_2d_grid):
    prediction = predict_performance(j2d5pt, eval_2d_grid, BlockingConfig(bT=10, bS=(256,)), v100)
    assert prediction.bottleneck == "shared_memory"


def test_roofline_bottleneck_global_for_bt1(j2d5pt, v100, eval_2d_grid):
    prediction = predict_performance(j2d5pt, eval_2d_grid, BlockingConfig(bT=1, bS=(256,)), v100)
    assert prediction.bottleneck == "global_memory"


def test_roofline_time_is_max_over_efficiency(j2d5pt, v100, eval_2d_grid):
    prediction = predict_performance(j2d5pt, eval_2d_grid, BlockingConfig(bT=8, bS=(256,)), v100)
    slowest = max(
        prediction.time_compute_s, prediction.time_global_s, prediction.time_shared_s
    )
    assert prediction.time_s == pytest.approx(slowest / prediction.sm_efficiency)


def test_roofline_prediction_close_to_paper_table5(j2d5pt, v100, eval_2d_grid):
    """Table 5: j2d5pt / V100 / float, bT=10, bS=256, hS=256 -> 8,144 GFLOP/s."""
    config = BlockingConfig(bT=10, bS=(256,), hS=256)
    prediction = predict_performance(j2d5pt, eval_2d_grid, config, v100)
    assert prediction.gflops == pytest.approx(8144, rel=0.25)


def test_roofline_3d_prediction_magnitude(star3d1r, v100, eval_3d_grid):
    """Table 5: star3d1r / V100 / float, bT=4, 32x32 -> 3,498 GFLOP/s."""
    config = BlockingConfig(bT=4, bS=(32, 32), hS=128)
    prediction = predict_performance(star3d1r, eval_3d_grid, config, v100)
    assert prediction.gflops == pytest.approx(3498, rel=0.35)


def test_roofline_scales_with_gpu(j2d5pt, v100, p100, eval_2d_grid):
    config = BlockingConfig(bT=8, bS=(256,))
    fast = predict_performance(j2d5pt, eval_2d_grid, config, v100)
    slow = predict_performance(j2d5pt, eval_2d_grid, config, p100)
    assert fast.gflops > slow.gflops


def test_gcells_consistent_with_gflops(j2d5pt, v100, eval_2d_grid):
    prediction = predict_performance(j2d5pt, eval_2d_grid, BlockingConfig(bT=8, bS=(256,)), v100)
    assert prediction.gflops == pytest.approx(prediction.gcells * j2d5pt.flops.total, rel=1e-6)
