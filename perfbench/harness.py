"""Shared pieces of the benchmark: paths, statistics, reports and tracing.

Every workload module returns a :class:`Report`; ``run.py`` turns it into
the human-readable metric table and the final one-line JSON result.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, native kernel builds and span dumps; the
#: benchmark reads and writes nothing outside the checkout.
WORK = ROOT / ".bench_work"

#: Samples a reported percentile must leave beyond it.
TAIL_SAMPLES = 10
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def prepare_environment() -> Dict[str, str]:
    """Point imports at ``src/`` and temp files at :data:`WORK`.

    Must run before ``repro`` (or ``tempfile``) is first used; returns the
    environment child processes inherit.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_percentile(samples: Sequence[float], wanted: float) -> Tuple[float, float]:
    """``(q, value)`` for the highest quantile <= ``wanted`` that still has
    :data:`TAIL_SAMPLES` samples beyond it (stepping 99 -> 95 -> 90 -> 75 -> 50)."""
    n = len(samples)
    for q in (0.99, 0.95, 0.90, 0.75, 0.50):
        if q <= wanted and n - math.ceil(q * n) >= TAIL_SAMPLES:
            return q, percentile(samples, q)
    return 0.50, percentile(samples, 0.50)


# ---------------------------------------------------------------------------
# Host speed
#
# On a shared host the processor's speed drops by up to ~2x for stretches of
# seconds to minutes (measured on a 2-vCPU VM: the same pass over the
# Table-5 matrix took 0.66 s or 1.42 s, with no steal time reported and
# process CPU time equal to wall time).  Timings are therefore scaled to a
# reference host speed, measured right before each operation with a small
# fixed loop that only the benchmark owns, so no change to the library can
# move it.  ``x_ms * speed`` is what ``x`` would take at reference speed;
# the printed table also shows the unscaled figures (``..._raw``).
# ---------------------------------------------------------------------------

#: Fast-phase durations of the two loops below on the host the first
#: baseline was recorded on (2-vCPU x86-64 VM, Python 3.11, NumPy 2.4).
PYTHON_REFERENCE_S = 0.0030
NUMPY_REFERENCE_S = 0.0029

#: The NumPy loop's two grids, made on first use and reused so that
#: allocation stays out of what the loop times.
_GRID = None


def _python_loop() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(8000):
        table[(i, i % 13)] = [i, str(i)]
    sum(len(value[1]) for value in table.values())
    return time.perf_counter() - start


def _numpy_loop() -> float:
    import numpy as np

    global _GRID
    if _GRID is None:
        _GRID = np.random.default_rng(0).random((2, 512, 512))
    current, other = _GRID[0], _GRID[1]
    start = time.perf_counter()
    for _ in range(2):
        other[1:-1, 1:-1] = 0.2 * (
            current[1:-1, 1:-1] + current[:-2, 1:-1] + current[2:, 1:-1]
            + current[1:-1, :-2] + current[1:-1, 2:]
        )
        current, other = other, current
    return time.perf_counter() - start


def python_speed() -> float:
    """Host speed for interpreter-bound work now (1.0 = reference)."""
    return PYTHON_REFERENCE_S / min(_python_loop(), _python_loop())


def numpy_speed() -> float:
    """Host speed for array-bound work now (1.0 = reference)."""
    return NUMPY_REFERENCE_S / min(_numpy_loop(), _numpy_loop())


def mixed_speed() -> float:
    """Host speed for work that is partly interpreter- and partly
    array-bound: the geometric mean of the two probes."""
    return math.sqrt(python_speed() * numpy_speed())


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its largest waited-for
    child) in MiB; Linux reports ``ru_maxrss`` in KiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Report:
    """What one workload run measured, plus its failure accounting."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Metric] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples))

    def add_latency(self, prefix: str, samples_ms: Sequence[float], tails: Sequence[float] = ()) -> None:
        """``<prefix>_p50`` plus, for each wanted tail, the highest percentile
        up to it that leaves ten samples beyond; all carry the sample count."""
        if not samples_ms:
            self.notes.append(f"{prefix}: no samples")
            return
        self.add(f"{prefix}_p50", statistics.median(samples_ms), "ms", len(samples_ms))
        for tail in tails:
            q, value = tail_percentile(samples_ms, tail)
            if q > 0.50:
                self.add(f"{prefix}_p{round(q * 100)}", value, "ms", len(samples_ms))

    def add_slowest_tenth(self, name: str, item_ms: Sequence[float]) -> None:
        """The mean of the slowest tenth of per-item medians, as the tail of
        a workload whose few dozen items leave fewer than ten beyond any
        percentile above the p75.  (A percentile over every (item, pass)
        sample jumps between the items it falls on, and a mean over the
        samples follows their outliers; both spread far more across seeds.)"""
        if not item_ms:
            return
        slowest = sorted(item_ms)[-max(1, len(item_ms) // 10):]
        self.add(name, statistics.fmean(slowest), "ms", len(item_ms))

    def fail(self, message: str) -> None:
        self.failed += 1
        self.notes.append(f"FAILED: {message}")


# ---------------------------------------------------------------------------
# Tracing (spans recorded from the benchmark's own calls into each layer)
# ---------------------------------------------------------------------------


class Tracer:
    """Wraps the program's own ``repro.obs.trace.span`` with a private store.

    Disabled tracers cost one attribute test per call, so untraced passes run
    the exact same code path.
    """

    def __init__(self) -> None:
        from repro.obs.trace import SpanStore

        self.store = SpanStore(max_traces=1 << 20, max_spans=1 << 16)
        self.enabled = False

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        if not self.enabled:
            yield None
            return
        from repro.obs.trace import span

        with span(name, store=self.store, **attrs) as context:
            yield context

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as span ``name`` on every call."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, owner: object, attr: str, name: str) -> Iterator[None]:
        """Record every call of ``owner.attr`` (a plain function or method)
        as span ``name`` while the block runs; restored afterwards."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def traces(self) -> List[List[Dict[str, object]]]:
        return [self.store.spans(tid) or [] for tid in self.store.trace_ids()]

    def dump(self, path: Path) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for spans in self.traces():
                for record in spans:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Seconds of self time per span name: duration minus direct children.

    The benchmark's spans nest strictly (one thread per trace), so children
    never overlap and their durations simply subtract.
    """
    child_total: Dict[str, float] = {}
    for record in spans:
        parent = record.get("parent_span_id")
        if parent is not None:
            child_total[str(parent)] = child_total.get(str(parent), 0.0) + float(record["duration_s"])
    out: Dict[str, float] = {}
    for record in spans:
        own = float(record["duration_s"]) - child_total.get(str(record["span_id"]), 0.0)
        name = str(record["name"])
        out[name] = out.get(name, 0.0) + max(own, 0.0)
    return out


def inclusive_times(spans: Sequence[Dict[str, object]]) -> Dict[str, Tuple[float, int]]:
    """``{span name: (total seconds, calls)}`` over one trace."""
    out: Dict[str, Tuple[float, int]] = {}
    for record in spans:
        seconds, calls = out.get(str(record["name"]), (0.0, 0))
        out[str(record["name"])] = (seconds + float(record["duration_s"]), calls + 1)
    return out


#: Layers the traced run reports self time for (``src/repro/<layer>``).
LAYERS = (
    "frontend", "core", "codegen", "tuning", "model", "sim", "ir",
    "stencils", "service", "campaign", "obs",
)


def add_layer_self_times(report: Report, traces: Sequence[Sequence[Dict[str, object]]], ops: int) -> None:
    """``<layer>.self_ms``: self time per operation, summed over the spans
    whose name starts with ``<layer>.``; the benchmark's own root spans
    (``bench.*``) are left out."""
    totals = {layer: 0.0 for layer in LAYERS}
    for spans in traces:
        for name, seconds in self_times(spans).items():
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += seconds
    for layer, seconds in totals.items():
        report.add(f"{layer}.self_ms", 1000.0 * seconds / max(ops, 1), "ms", ops)


def add_overhead(report: Report, untraced: Dict[object, List[float]], traced: Dict[object, List[float]]) -> None:
    """Tracing overhead from passes of the same run: per operation key, the
    traced median latency over the untraced one; reported is the median of
    those ratios, so load from elsewhere on the host cancels out."""
    ratios = [
        statistics.median(traced[key]) / statistics.median(untraced[key])
        for key in untraced.keys() & traced.keys()
    ]
    if ratios:
        report.add("trace.overhead_pct", 100.0 * (statistics.median(ratios) - 1.0), "%", len(ratios))


def run_setup_probes(workload: str, env: Dict[str, str], repeats: int = SETUP_REPEATS) -> List[Dict[str, float]]:
    """Run ``setup_probe.py`` ``repeats`` times in fresh interpreters (cold
    imports); each result is the probe's JSON plus ``wall_raw_s``, the time
    from spawning the interpreter until it exited, and ``wall_s``, the same
    at reference host speed: the mean of four speed probes, right before and
    after the spawn and, inside the probe, around its work."""
    import json
    import subprocess

    probe = Path(__file__).resolve().parent / "setup_probe.py"
    results = []
    for _ in range(repeats):
        speed_before = python_speed()
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(probe), workload],
            cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - start
        speed_after = python_speed()
        if completed.returncode != 0:
            raise RuntimeError(f"setup probe failed: {completed.stderr.strip()[-500:]}")
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        result["wall_raw_s"] = wall
        result["wall_s"] = wall * statistics.fmean([speed_before, *result["speeds"], speed_after])
        results.append(result)
    return results


def median_of(results: Sequence[Dict[str, float]], key: str) -> float:
    return statistics.median(float(result[key]) for result in results)
