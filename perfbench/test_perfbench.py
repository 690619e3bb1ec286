"""Tests of the benchmark itself: seeded inputs, output contract, load limits.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from harness import ROOT, SRC, Report, tail_percentile

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import service_mixed  # noqa: E402
import table3_tune  # noqa: E402
import verify_exec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first_pass(seed):
    return next(table3_tune.shuffled_passes(seed))


def test_same_seed_same_inputs_other_seed_different():
    assert _first_pass(5) == _first_pass(5)
    assert _first_pass(5) != _first_pass(6)
    assert sorted(_first_pass(5)) == sorted(table3_tune.all_items())
    assert verify_exec.draw_items(5) == verify_exec.draw_items(5)
    assert verify_exec.draw_items(5) != verify_exec.draw_items(6)
    first, again, other = (service_mixed.make_inputs(seed) for seed in (5, 5, 6))
    assert first == again
    assert first.time_steps_base != other.time_steps_base

    def draws(seed):
        rng = service_mixed.client_rng(seed, 0)
        return [rng.random() for _ in range(8)]

    assert draws(5) == draws(5)
    assert draws(5) != draws(6)


def test_verify_draw_covers_every_class_and_a_valid_degree():
    from repro.stencils.library import load_pattern

    names = {name for name, _, _ in verify_exec.draw_items(11)}
    assert {"star3d4r", "box3d4r"} <= names
    for name in ("star3d4r", "box3d4r", "box2d4r"):
        _, config = verify_exec.verify_setup(load_pattern(name, "float"))
        assert 1 <= config.bT <= 4


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    assert tail_percentile(samples, 0.99) == (0.90, 90)
    assert tail_percentile(samples[:40], 0.90) == (0.75, 30)
    assert tail_percentile(samples[:30], 0.90) == (0.50, 15)


def test_slowest_tenth_is_the_mean_of_the_slowest_items():
    report = Report()
    report.add_slowest_tenth("a", [float(v) for v in range(1, 37)])
    report.add_slowest_tenth("b", [5.0, 1.0, 3.0])
    assert report.metrics["a"].value == 35.0 and report.metrics["a"].samples == 36
    assert report.metrics["b"].value == 5.0


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == ["table3-tune", "verify-exec", "service-mixed"]
    setup = next(entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < entry["bound"] <= setup["bound"] <= 0.25 for entry in SPEC["end_to_end"])


def test_load_generator_stays_within_nproc():
    assert 1 <= service_mixed.CLIENTS <= (os.cpu_count() or 1)


def _short_run(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize(
    "workload, trace",
    [("table3-tune", 0), ("table3-tune", 1), ("verify-exec", 0), ("service-mixed", 0)],
)
def test_short_mode_is_correct_and_prints_the_declared_metrics(workload, trace):
    lines, result = _short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert all(result["metrics"][entry["name"]]["value"] > 0 for entry in declared)
    table = {
        match.group(1): float(match.group(2))
        for match in (re.match(r"\s+(\S+)\s+(-?[\d.]+)\s", line) for line in lines)
        if match
    }
    assert table["failed_frac"] == 0.0
    if workload == "service-mixed":
        assert table["client.threads"] <= (os.cpu_count() or 1)
        assert table["client.max_connections"] <= (os.cpu_count() or 1)
