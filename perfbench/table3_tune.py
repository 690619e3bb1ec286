"""Workload ``table3-tune``: cold source-to-CUDA tuning of the Table-5 matrix.

Why: this is the wait an AN5D user pays for a new stencil.  Each of the 84
items (21 Table-3 stencils x {float, double} x {V100, P100}) goes from C
source to a tuned configuration and emitted CUDA in-process, with the model
memos dropped first.  Time sits in stage 2 for 2-D stencils and in the
frontend for the radius-3/4 3-D boxes; the service hot cache is bypassed.

Correctness: every tuned configuration and CUDA digest must equal
``expected_table3.json``, and the tuned degrees must keep the paper's
Table-5 shape (low-order 2-D stencils bT >= 6, radius-3/4 3-D boxes bT <= 2).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from harness import (
    SETUP_REPEATS,
    WORK,
    Report,
    Tracer,
    add_layer_self_times,
    add_overhead,
    inclusive_times,
    median_of,
    peak_rss_mb,
    python_speed,
    run_setup_probes,
)

EXPECTED = Path(__file__).resolve().parent / "expected_table3.json"

GPUS = ("V100", "P100")
DTYPES = ("float", "double")

#: Generic end-to-end names (shared by every workload) -> this workload's own.
#: The tail is the p75, the highest percentile of the 84 items with ten
#: items beyond it.  The second and third operation classes are the 36 3-D
#: items (where the frontend dominates) and the 48 2-D items (where stage 2
#: does); the second class's tail is the mean of the slowest tenth of its
#: item medians (see Report.add_slowest_tenth).
E2E_NAMES = {
    "op_ms_p50": "tune_ms_p50",
    "op_ms_tail": "tune_ms_p75",
    "ops_per_s": "tune_stencils_per_s",
    "op2_ms_p50": "tune3d_ms_p50",
    "op2_ms_tail": "tune3d_ms_tail10",
    "op3_ms_p50": "tune2d_ms_p50",
}

#: Passes before a run may end; each item's latency is its median over them.
MIN_PASSES = 3
#: Items per pass in the short mode the benchmark's own tests use.
SHORT_ITEMS = 6

Item = Tuple[str, str, str]


def all_items() -> List[Item]:
    from repro.stencils.library import BENCHMARKS

    return [(name, dtype, gpu) for name in BENCHMARKS for dtype in DTYPES for gpu in GPUS]


def item_key(item: Item) -> str:
    return "/".join(item)


def is_3d(item: Item) -> bool:
    """Every Table-3 3-D stencil, and no 2-D one, has ``3d`` in its name."""
    return "3d" in item[0]


def shuffled_passes(seed: int):
    """Endless seeded passes over all items, each in a fresh shuffled order."""
    rng = random.Random(seed)
    items = all_items()
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def tune_item(item: Item, tracer: Tracer) -> Dict[str, object]:
    """One item, C source -> tuned config -> CUDA, through the public chain
    ``parse_stencil -> AutoTuner.rank -> tune_ranked -> an5d_transform ->
    generate_cuda``; returns the outcome that is checked."""
    from repro.codegen import generate_cuda
    from repro.core.transform import an5d_transform
    from repro.frontend.stencil_detect import parse_stencil
    from repro.model import clear_model_caches
    from repro.stencils.library import get_benchmark
    from repro.tuning.autotuner import AutoTuner
    from repro.tuning.search_space import default_search_space

    name, dtype, gpu = item
    benchmark = get_benchmark(name)
    clear_model_caches()
    with tracer.span("bench.item", item=item_key(item)):
        with tracer.span("frontend.parse"):
            pattern = parse_stencil(benchmark.source, name=name, dtype=dtype).pattern
        grid = benchmark.default_grid()
        tuner = AutoTuner(gpu, top_k=5)
        with tracer.span("tuning.rank"):
            space = default_search_space(pattern)
            ranked = tuner.rank(pattern, grid, space)
        with tracer.span("tuning.stage2"):
            result = tuner.tune_ranked(pattern, grid, ranked, explored=space.size())
        with tracer.span("core.transform"):
            plan = an5d_transform(pattern, result.best_config)
        with tracer.span("codegen.emit"):
            cuda = generate_cuda(plan)
    config = result.best_config
    digest = hashlib.sha256(
        (cuda.kernel_source + "\0" + cuda.host_source).encode("utf-8")
    ).hexdigest()
    return {
        "bT": config.bT,
        "bS": list(config.bS),
        "hS": config.hS,
        "regs": config.register_limit,
        "cuda_sha256": digest,
        "explored": result.explored,
        "ranked": result.pruned_to,
        "kernel_bytes": len(cuda.kernel_source.encode("utf-8")),
        "radius": pattern.radius,
        "ndim": pattern.ndim,
    }


CHECKED_FIELDS = ("bT", "bS", "hS", "regs", "cuda_sha256")


def check_item(item: Item, outcome: Dict[str, object], expected: Dict[str, Dict[str, object]]) -> str:
    """Empty string when ``outcome`` is correct, else what is wrong."""
    want = expected.get(item_key(item))
    if want is None:
        return f"{item_key(item)}: no expected output"
    for name in CHECKED_FIELDS:
        if outcome[name] != want[name]:
            return f"{item_key(item)}: {name} {outcome[name]!r} != expected {want[name]!r}"
    bT = int(outcome["bT"])
    if outcome["ndim"] == 2 and outcome["radius"] == 1 and bT < 6:
        return f"{item_key(item)}: low-order 2-D stencil tuned to bT={bT} < 6"
    if item[0] in ("box3d3r", "box3d4r") and bT > 2:
        return f"{item_key(item)}: radius-3/4 3-D box tuned to bT={bT} > 2"
    return ""


def load_expected() -> Dict[str, Dict[str, object]]:
    with open(EXPECTED) as handle:
        return json.load(handle)


def _traced_layers(tracer: Tracer):
    """Spans at the model and simulator boundaries crossed inside the tuner
    (traced passes only)."""
    from repro.model.batch import BatchModelEngine
    from repro.sim.timing import TimingSimulator
    from repro.tuning import autotuner

    stack = contextlib.ExitStack()
    stack.enter_context(tracer.patched(autotuner, "prune_mask", "model.prune"))
    stack.enter_context(tracer.patched(BatchModelEngine, "predict", "model.predict"))
    stack.enter_context(tracer.patched(TimingSimulator, "simulate", "sim.simulate"))
    return stack


def run(seed: int, seconds: float, trace: bool, env: Dict[str, str], short: bool = False) -> Report:
    """Measure whole passes over the matrix until ``seconds`` have elapsed
    (at least :data:`MIN_PASSES`); ``short`` runs one pass over a few items."""
    report = Report()
    probes = run_setup_probes("table3-tune", env, repeats=1 if short else SETUP_REPEATS)
    report.add("setup_s", median_of(probes, "wall_s"), "s", len(probes))
    report.add("setup_s_raw", median_of(probes, "wall_raw_s"), "s", len(probes))
    report.add("setup.import_s", median_of(probes, "import_s"), "s", len(probes))
    report.add("setup.first_tune_ms", median_of(probes, "first_ms"), "ms", len(probes))

    expected = load_expected()
    tracer = Tracer()
    # Latencies per item at reference host speed, for untraced (False) and
    # traced (True) passes, and the unscaled untraced ones.
    per_item: Dict[bool, Dict[Item, List[float]]] = {False: {}, True: {}}
    raw: Dict[Item, List[float]] = {}
    counts = {"explored": 0, "ranked": 0, "kernel_bytes": 0, "items": 0}
    start = time.perf_counter()
    for index, order in enumerate(shuffled_passes(seed)):
        if short:
            if index == (2 if trace else 1):
                break
            half = SHORT_ITEMS // 2
            order = [i for i in order if is_3d(i)][:half] + [i for i in order if not is_3d(i)][:half]
        elif index >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
        traced = trace and index % 2 == 1
        tracer.enabled = traced
        with _traced_layers(tracer) if traced else contextlib.nullcontext():
            for item in order:
                report.attempted += 1
                speed = python_speed()
                began = time.perf_counter()
                try:
                    outcome = tune_item(item, tracer)
                except Exception as error:  # counted, never retried
                    report.fail(f"{item_key(item)}: {type(error).__name__}: {error}")
                    continue
                elapsed = 1000.0 * (time.perf_counter() - began)
                per_item[traced].setdefault(item, []).append(elapsed * speed)
                if not traced:
                    raw.setdefault(item, []).append(elapsed)
                problem = check_item(item, outcome, expected)
                if problem:
                    report.fail(problem)
                if traced:
                    counts["explored"] += int(outcome["explored"])
                    counts["ranked"] += int(outcome["ranked"])
                    counts["kernel_bytes"] += int(outcome["kernel_bytes"])
                    counts["items"] += 1
    tracer.enabled = False

    # Percentiles over the items of each item's median over the passes, at
    # reference host speed (see harness.python_speed); one pass over the
    # matrix is the sum of the same medians.
    medians = {item: statistics.median(v) for item, v in per_item[False].items()}
    item_ms = list(medians.values())
    report.add_latency("tune_ms", item_ms, (0.75, 0.90))
    for label, want_3d in (("tune3d_ms", True), ("tune2d_ms", False)):
        class_ms = [ms for item, ms in medians.items() if is_3d(item) == want_3d]
        report.add_latency(label, class_ms)
        report.add_slowest_tenth(f"{label}_tail10", class_ms)
    if item_ms:
        pass_s = sum(item_ms) / 1000.0
        report.add("tune_stencils_per_s", len(item_ms) / pass_s, "1/s", len(item_ms))
        report.add("tune_pass_s", pass_s, "s", len(item_ms))
        raw_ms = [statistics.median(v) for v in raw.values()]
        report.add("tune_ms_p50_raw", statistics.median(raw_ms), "ms", len(raw_ms))
        report.add("tune_pass_s_raw", sum(raw_ms) / 1000.0, "s", len(raw_ms))
    report.add("peak_rss_mb", peak_rss_mb(), "MB")
    if trace:
        _add_trace_metrics(report, tracer, counts)
        add_overhead(report, per_item[False], per_item[True])
        tracer.dump(WORK / f"spans-table3-tune-{seed}.jsonl")
    return report


def _add_trace_metrics(report: Report, tracer: Tracer, counts: Dict[str, int]) -> None:
    items = max(counts["items"], 1)
    totals: Dict[str, Tuple[float, int]] = {}
    coverage: List[float] = []
    phases = ("frontend.parse", "tuning.rank", "tuning.stage2", "core.transform", "codegen.emit")
    for spans in tracer.traces():
        inclusive = inclusive_times(spans)
        for name, (seconds, calls) in inclusive.items():
            total, n = totals.get(name, (0.0, 0))
            totals[name] = (total + seconds, n + calls)
        root = inclusive.get("bench.item", (0.0, 0))[0]
        if root > 0:
            coverage.append(sum(inclusive.get(name, (0.0, 0))[0] for name in phases) / root)

    def per_item_ms(name: str) -> float:
        return 1000.0 * totals.get(name, (0.0, 0))[0] / items

    report.add("frontend.parse_ms", per_item_ms("frontend.parse"), "ms", items)
    report.add("tuning.rank_ms", per_item_ms("tuning.rank"), "ms", items)
    report.add("sim.stage2_ms", per_item_ms("tuning.stage2"), "ms", items)
    report.add("sim.stage2_calls", totals.get("sim.simulate", (0.0, 0))[1] / items, "count", items)
    report.add("core.transform_ms", per_item_ms("core.transform"), "ms", items)
    report.add("codegen.emit_ms", per_item_ms("codegen.emit"), "ms", items)
    report.add("tuning.configs_explored", counts["explored"] / items, "count", items)
    report.add("tuning.configs_ranked", counts["ranked"] / items, "count", items)
    report.add("tuning.prune_ratio", counts["ranked"] / max(counts["explored"], 1), "ratio", items)
    report.add("codegen.kernel_bytes", counts["kernel_bytes"] / items, "bytes", items)
    if coverage:
        report.add("trace.span_coverage", statistics.fmean(coverage), "ratio", len(coverage))
    add_layer_self_times(report, tracer.traces(), items)
