"""Tests for the high-level API and the command-line interface."""

import numpy as np
import pytest

from repro import api
from repro.cli import build_parser, main
from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec
from repro.stencils.library import get_benchmark


# -- api.compile_stencil ------------------------------------------------------


def test_compile_benchmark_by_name():
    compiled = api.compile_stencil("j2d5pt", bT=4, bS=(64,))
    assert compiled.pattern.name == "j2d5pt"
    assert "__global__" in compiled.kernel_source
    assert "an5d_host_j2d5pt" in compiled.host_source


def test_compile_raw_source():
    source = get_benchmark("j2d5pt").source
    compiled = api.compile_stencil(source, name="heat", bT=2, bS=(32,))
    assert compiled.pattern.name == "heat"
    assert "an5d_kernel_heat" in compiled.kernel_source


def test_compile_existing_pattern(j2d5pt):
    compiled = api.compile_stencil(j2d5pt, bT=2, bS=(32,))
    assert compiled.config.bT == 2


def test_compile_with_explicit_config(j2d5pt):
    config = BlockingConfig(bT=6, bS=(128,), hS=256, register_limit=64)
    compiled = api.compile_stencil(j2d5pt, config=config)
    assert compiled.config is config
    assert "__launch_bounds__" in compiled.kernel_source


def test_parse_returns_detected_stencil():
    detected = api.parse(get_benchmark("j2d5pt").source, name="x")
    assert detected.pattern.radius == 1


# -- api predict / simulate / tune --------------------------------------------------


def test_predict_and_simulate_consistency():
    config = BlockingConfig(bT=8, bS=(256,), hS=512)
    predicted = api.predict("j2d5pt", config, gpu="V100", grid=(4096, 4096), time_steps=100)
    simulated = api.simulate("j2d5pt", config, gpu="V100", grid=(4096, 4096), time_steps=100)
    assert simulated.gflops < predicted.gflops


def test_tune_small_grid():
    result = api.tune("j2d5pt", gpu="V100", grid=(2048, 2048), time_steps=100)
    assert result.best.measured_gflops > 0
    assert result.gpu_name.startswith("Tesla V100")


def test_sconf_configuration_api():
    assert api.sconf("j2d5pt").bT == 4
    assert api.sconf("star3d1r").bS == (32, 32)


def test_execution_summary_fields():
    summary = api.execution_summary("j2d5pt", BlockingConfig(bT=4, bS=(64,)), grid=(512, 512))
    assert summary["nthr"] == 64
    assert summary["ntb"] > 0


# -- api run / reference / verify -----------------------------------------------------


def test_api_run_matches_reference():
    config = BlockingConfig(bT=3, bS=(32,))
    grid = (64, 64)
    blocked = api.run("j2d5pt", config, grid, time_steps=6, seed=7)
    ref = api.reference("j2d5pt", grid, time_steps=6, seed=7)
    assert np.allclose(blocked, ref, rtol=1e-4, atol=1e-5)


def test_api_verify_2d_and_3d():
    assert api.verify("j2d5pt", bT=4, bS=(32,), time_steps=8).matches
    assert api.verify("star3d1r", bT=2, bS=(16, 16), time_steps=4).matches


def test_api_baseline_dispatch():
    for name in ("loop", "hybrid", "stencilgen", "Loop Tiling", "Hybrid-Tiling"):
        result = api.baseline(name, "j2d5pt", gpu="V100", grid=(2048, 2048), time_steps=50)
        assert result.gflops > 0
    with pytest.raises(ValueError):
        api.baseline("overtile", "j2d5pt")


def test_api_grid_resolution_defaults():
    # Benchmark names pick up the paper's default grids.
    prediction = api.predict("j2d5pt", BlockingConfig(bT=4, bS=(256,)))
    assert prediction.traffic.useful_flops == pytest.approx(16384 * 16384 * 1000 * 10, rel=1e-6)


def test_api_accepts_gridspec_instances():
    grid = GridSpec((1024, 1024), 10)
    measurement = api.simulate("j2d5pt", BlockingConfig(bT=2, bS=(128,)), grid=grid)
    assert measurement.time_s > 0


# -- CLI ----------------------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "j2d5pt" in output and "box3d4r" in output


def test_cli_compile_benchmark(capsys):
    assert main(["compile", "j2d5pt", "--bT", "2", "--bS", "64"]) == 0
    output = capsys.readouterr().out
    assert "__global__" in output and "an5d_kernel_j2d5pt" in output


def test_cli_compile_to_file(tmp_path, capsys):
    target = tmp_path / "kernel.cu"
    assert main(["compile", "j2d5pt", "--bT", "2", "--bS", "64", "-o", str(target)]) == 0
    assert target.exists()
    assert "an5d_kernel_j2d5pt" in target.read_text()


def test_cli_compile_source_file(tmp_path, capsys):
    source_file = tmp_path / "heat.c"
    source_file.write_text(get_benchmark("j2d5pt").source)
    assert main(["compile", str(source_file), "--bT", "2", "--bS", "64"]) == 0
    assert "an5d_kernel_heat" in capsys.readouterr().out


def test_cli_compile_missing_input(capsys):
    assert main(["compile", "does-not-exist"]) == 2


def test_cli_verify(capsys):
    assert main(["verify", "j2d5pt", "--bT", "3", "--bS", "32", "--time-steps", "6"]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_verify_3d(capsys):
    assert main(["verify", "star3d1r", "--bT", "2", "--bS", "16x16", "--time-steps", "4"]) == 0


def test_cli_predict(capsys):
    assert main(["predict", "j2d5pt", "--bT", "8", "--bS", "256", "--hS", "512"]) == 0
    output = capsys.readouterr().out
    assert "model:" in output and "simulated:" in output


def _printed_fields(output):
    """The ``  key: value`` lines the tune/exhaustive commands print."""
    fields = {}
    for line in output.splitlines():
        key, sep, value = line.strip().partition(": ")
        if sep and line.startswith("  "):
            fields[key] = value
    return fields


def test_cli_tune_matches_api(capsys):
    assert main(["tune", "j2d5pt", "--time-steps", "100"]) == 0
    fields = _printed_fields(capsys.readouterr().out)
    row = api.tune("j2d5pt", time_steps=100).as_row()
    for key in ("bT", "bS", "hS", "regs"):
        assert fields[key] == str(row[key])


def test_cli_exhaustive_matches_api(capsys):
    assert main(["exhaustive", "j2d5pt", "--time-steps", "100"]) == 0
    output = capsys.readouterr().out
    fields = _printed_fields(output)
    row = api.exhaustive("j2d5pt", time_steps=100).as_row()
    for key in ("bT", "bS", "hS", "regs"):
        assert fields[key] == str(row[key])
    assert f"evaluated {row['evaluated']} configs" in output


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_top_history_missing_store_exits_2_without_creating_it(
    tmp_path, monkeypatch, capsys
):
    # Like every other store reader: a mistyped --store is an error, not an
    # empty history in a freshly created store file.
    monkeypatch.chdir(tmp_path)
    assert main(["top", "--history", "--store", "typo.sqlite"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: no campaign store at 'typo.sqlite'\n"
    assert captured.out == ""
    assert not (tmp_path / "typo.sqlite").exists()


def test_cluster_coordinator_runs_serve_with_its_defaults():
    # `cluster coordinator` is `serve` in the coordinator role; the serve flags
    # it does not declare must still reach the handler with serve's defaults.
    parser = build_parser()
    serve = vars(parser.parse_args(["serve"]))
    coordinator = vars(parser.parse_args(["cluster", "coordinator"]))
    assert coordinator["role"] == "coordinator" and coordinator["cluster"] is True
    for dest in serve.keys() - {"command", "role", "cluster"}:
        assert coordinator[dest] == serve[dest], dest
