"""Workload ``verify-exec``: blocked executor checked against the reference.

Why: this is the only workload that runs ``ir/compile``, ``sim/executor``
and ``stencils/reference``; the model, tuner and service sit idle, so
changes to them should not move it.

Each item is an ``api.verify``-style check of one Table-3 stencil: run the
N.5D blocked executor and the NumPy reference from the same seeded grid and
require agreement within the library's dtype tolerance.  The items are all
21 Table-3 stencils in both precisions (2-D and 3-D, star and box, radius
1-4); the seed draws each check's grid data and the order of every pass.
Drawing a subset of stencils per seed made the median move with the draw
rather than with the code.  The blocking degree backs off from bT=4
until the configuration is valid (as the fuzz oracle does), so
``star3d4r`` and ``box3d4r`` are verified rather than skipped.

The kernel cache is dropped before every item, as in a fresh ``api.verify``
call: the tiered kernel then decides its engine from the work of that one
check (verification-sized grids stay below the native promotion threshold
and run on the fused NumPy engine) instead of from whatever the process ran
before.  The first native kernel build is timed in the set-up probe.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time
from typing import Dict, List, Tuple

from harness import (
    SETUP_REPEATS,
    WORK,
    Report,
    Tracer,
    add_layer_self_times,
    add_overhead,
    geomean,
    inclusive_times,
    median_of,
    mixed_speed,
    peak_rss_mb,
    run_setup_probes,
)

#: The second and third operation classes are the 18 3-D items and the 24
#: 2-D items, which run different blocked loop nests; the second class's
#: tail is the mean of the slowest tenth of its item medians (here the one
#: slowest 3-D item; see Report.add_slowest_tenth).
E2E_NAMES = {
    "op_ms_p50": "verify_ms_p50",
    "op_ms_tail": "verify_ms_p75",
    "ops_per_s": "verifies_per_s",
    "op2_ms_p50": "verify3d_ms_p50",
    "op2_ms_tail": "verify3d_ms_tail10",
    "op3_ms_p50": "verify2d_ms_p50",
}

DTYPES = ("float", "double")

GRID_2D = (512, 512)
#: 3-D interior edge by radius: high radii get smaller grids instead of
#: being skipped, which keeps every check well under a second.
EDGE_3D = {1: 48, 2: 32, 3: 24, 4: 24}
STEPS = {2: 8, 3: 4}
BLOCK = {2: (64,), 3: (16, 16)}

#: Passes before a run may end; each item's latency is its median over them.
MIN_PASSES = 3
SHORT_ITEMS = 4

Item = Tuple[str, str, int]


def draw_items(seed: int) -> List[Item]:
    """``(stencil, dtype, data seed)`` for every Table-3 stencil and precision."""
    from repro.stencils.library import BENCHMARKS

    rng = random.Random(seed)
    return [(name, dtype, rng.randrange(2**31)) for name in BENCHMARKS for dtype in DTYPES]


def verify_setup(pattern):
    """The verify grid and the largest valid blocking degree from bT=4 down."""
    from repro.core.config import BlockingConfig
    from repro.ir.stencil import GridSpec

    ndim = pattern.ndim
    interior = GRID_2D if ndim == 2 else (EDGE_3D[pattern.radius],) * 3
    grid = GridSpec(interior, STEPS[ndim])
    for bT in (4, 3, 2, 1):
        config = BlockingConfig(bT=bT, bS=BLOCK[ndim])
        if config.is_valid(pattern):
            return grid, config
    raise ValueError(f"no valid blocking for {pattern.name}")


def verify_item(pattern, grid, config, data_seed: int, tracer: Tracer) -> Tuple[bool, str]:
    """One check; returns (blocked matches reference, executor kernel mode)."""
    from repro.ir.compile import clear_kernel_cache
    from repro.sim.executor import BlockedStencilExecutor
    from repro.stencils.reference import ReferenceExecutor, allclose_for_dtype, make_initial_grid

    clear_kernel_cache()
    with tracer.span("bench.verify", stencil=pattern.name, dtype=pattern.dtype):
        with tracer.span("stencils.initial"):
            initial = make_initial_grid(pattern, grid, data_seed)
        with tracer.span("sim.blocked"):
            executor = BlockedStencilExecutor(pattern, grid, config)
            kernel = executor.kernel
            if tracer.enabled:
                executor.kernel = tracer.wrap(kernel, "ir.kernel")
            blocked = executor.run(initial)
        with tracer.span("stencils.reference"):
            reference = ReferenceExecutor(pattern)
            if tracer.enabled:
                reference.kernel = tracer.wrap(reference.kernel, "ir.kernel")
            expected = reference.run(initial, grid.time_steps)
        with tracer.span("stencils.compare"):
            matches = allclose_for_dtype(blocked, expected, pattern.dtype)
    return matches, kernel.mode


def _traced_layers(tracer: Tracer):
    from repro.sim import executor
    from repro.stencils import reference

    stack = contextlib.ExitStack()
    stack.enter_context(tracer.patched(executor, "compile_pattern", "ir.compile"))
    stack.enter_context(tracer.patched(reference, "compile_pattern", "ir.compile"))
    return stack


def run(seed: int, seconds: float, trace: bool, env: Dict[str, str], short: bool = False) -> Report:
    from repro.stencils.library import load_pattern

    report = Report()
    probes = run_setup_probes("verify-exec", env, repeats=1 if short else SETUP_REPEATS)
    report.add("setup_s", median_of(probes, "wall_s"), "s", len(probes))
    report.add("setup_s_raw", median_of(probes, "wall_raw_s"), "s", len(probes))
    report.add("setup.import_s", median_of(probes, "import_s"), "s", len(probes))
    report.add("ir.kernel_build_ms", median_of(probes, "first_ms"), "ms", len(probes))
    report.notes.append(f"first kernel build tier: {'native C' if probes[0]['native'] else 'NumPy'}")

    items = draw_items(seed)
    if short:
        items = items[::len(items) // SHORT_ITEMS][:SHORT_ITEMS]
    prepared = {}
    for name, dtype, _ in items:
        pattern = load_pattern(name, dtype)
        prepared[(name, dtype)] = (pattern,) + verify_setup(pattern)

    # Warm-up: one untimed check per item, so lazy imports and any native
    # build a check promotes to (cached per process) happen before timing.
    warm_start = time.perf_counter()
    idle = Tracer()
    for name, dtype, data_seed in items:
        verify_item(*prepared[(name, dtype)], data_seed, idle)
    report.add("setup.warmup_s", time.perf_counter() - warm_start, "s")

    rng = random.Random(seed ^ 0x5EED)
    tracer = Tracer()
    # Latencies per item at reference host speed, for untraced (False) and
    # traced (True) passes, and the unscaled untraced ones.
    per_item: Dict[bool, Dict[Item, List[float]]] = {False: {}, True: {}}
    raw: Dict[Item, List[float]] = {}
    native: Dict[Item, bool] = {}
    start = time.perf_counter()
    index = 0
    while True:
        if short:
            if index == (2 if trace else 1):
                break
        elif index >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
        traced = trace and index % 2 == 1
        tracer.enabled = traced
        order = list(items)
        rng.shuffle(order)
        with _traced_layers(tracer) if traced else contextlib.nullcontext():
            for item in order:
                name, dtype, data_seed = item
                report.attempted += 1
                speed = mixed_speed()
                began = time.perf_counter()
                try:
                    matches, mode = verify_item(*prepared[(name, dtype)], data_seed, tracer)
                except Exception as error:  # counted, never retried
                    report.fail(f"{name}/{dtype}: {type(error).__name__}: {error}")
                    continue
                elapsed = 1000.0 * (time.perf_counter() - began)
                per_item[traced].setdefault(item, []).append(elapsed * speed)
                if not traced:
                    raw.setdefault(item, []).append(elapsed)
                native[item] = mode == "auto:native"
                if not matches:
                    report.fail(f"{name}/{dtype}: blocked result differs from the reference")
        index += 1
    tracer.enabled = False

    # Percentiles over the items of each item's median over the passes, at
    # reference host speed (see harness.mixed_speed).
    medians = {item: statistics.median(v) for item, v in per_item[False].items()}
    report.add_latency("verify_ms", list(medians.values()), (0.75, 0.90))
    for label, ndim in (("verify3d_ms", 3), ("verify2d_ms", 2)):
        class_ms = [ms for item, ms in medians.items() if prepared[item[:2]][0].ndim == ndim]
        report.add_latency(label, class_ms)
        report.add_slowest_tenth(f"{label}_tail10", class_ms)
    if medians:
        report.add("verifies_per_s", 1000.0 * len(medians) / sum(medians.values()), "1/s", len(medians))
        rates = [
            _cells(prepared[(name, dtype)][1]) / (ms / 1000.0) / 1e6
            for (name, dtype, _), ms in medians.items()
        ]
        report.add("verify_mcells_per_s", geomean(rates), "Mcells/s", len(rates))
        raw_ms = [statistics.median(v) for v in raw.values()]
        report.add("verify_ms_p50_raw", statistics.median(raw_ms), "ms", len(raw_ms))
    report.add("peak_rss_mb", peak_rss_mb(), "MB")
    report.add("ir.native_share", sum(native.values()) / max(len(native), 1), "ratio", len(native))
    if trace:
        _add_trace_metrics(report, tracer, prepared)
        add_overhead(report, per_item[False], per_item[True])
        tracer.dump(WORK / f"spans-verify-exec-{seed}.jsonl")
    return report


def _cells(grid) -> int:
    cells = grid.time_steps
    for extent in grid.interior:
        cells *= extent
    return cells


def _add_trace_metrics(report: Report, tracer: Tracer, prepared) -> None:
    traces = [spans for spans in tracer.traces() if spans]
    checks = max(len(traces), 1)
    totals: Dict[str, float] = {}
    blocked_rates: List[float] = []
    reference_rates: List[float] = []
    for spans in traces:
        inclusive = inclusive_times(spans)
        for name, (seconds, _) in inclusive.items():
            totals[name] = totals.get(name, 0.0) + seconds
        root = next(record for record in spans if record["name"] == "bench.verify")
        cells = _cells(prepared[(root["attrs"]["stencil"], root["attrs"]["dtype"])][1])
        blocked_rates.append(cells / inclusive["sim.blocked"][0] / 1e6)
        reference_rates.append(cells / inclusive["stencils.reference"][0] / 1e6)

    def per_check_ms(name: str) -> float:
        return 1000.0 * totals.get(name, 0.0) / checks

    report.add("executor.blocked_ms", per_check_ms("sim.blocked"), "ms", checks)
    report.add("executor.mcells_per_s", geomean(blocked_rates), "Mcells/s", checks)
    report.add("reference.ms", per_check_ms("stencils.reference"), "ms", checks)
    report.add("reference.mcells_per_s", geomean(reference_rates), "Mcells/s", checks)
    report.add("verify.compare_ms", per_check_ms("stencils.compare"), "ms", checks)
    report.add("ir.compile_ms", per_check_ms("ir.compile"), "ms", checks)
    add_layer_self_times(report, traces, checks)
