"""Sampling profiler: folded stacks from ``sys._current_frames`` (stdlib-only).

A background daemon thread wakes at a configurable rate, snapshots every
live thread's Python stack, and accumulates them as *folded stacks* — the
semicolon-joined ``file:function`` chains (root first) that flamegraph
tooling's ``collapse`` format expects, one ``stack count`` line each:

    cli.py:main;scheduler.py:run;executor.py:step_block 412

The profiler is refcounted: :meth:`SamplingProfiler.start` spawns the
sampler on the first acquisition and :meth:`~SamplingProfiler.stop` joins
it on the last, so overlapping windows (an HTTP ``GET /profile?seconds=N``
racing a scheduler hot-path window) compose without a coordinator.  Hot
paths wrap themselves in :meth:`~SamplingProfiler.window`, which is a
no-op unless the profiler has been *armed* (``an5d serve --profile``,
``bench_sweep --check``'s overhead gate, or :func:`arm_profiler`) — an
unarmed window costs one attribute read, keeping the default-path overhead
inside the existing <=5% instrumentation budget.

Counts are cumulative; readers that want a bounded interval snapshot the
counts before and diff after (:meth:`~SamplingProfiler.snapshot` /
:func:`folded_diff`), which is what the ``/profile`` endpoint does.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry

#: Default sampling rate; a prime off the scheduler-tick harmonics.
DEFAULT_HZ = 97.0

#: Frames deeper than this are truncated (runaway recursion protection).
MAX_STACK_DEPTH = 64

#: Distinct folded stacks kept; beyond this new stacks fold into a bucket.
MAX_DISTINCT_STACKS = 20_000

_OVERFLOW_KEY = "~overflow~"


class SamplingProfiler:
    """Refcounted background sampler producing folded-stack counts."""

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        self._hz = float(hz)
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._samples = 0
        self._refs = 0
        self._armed = False
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Acquire the sampler; the first acquisition spawns the thread."""
        with self._lock:
            self._refs += 1
            if self._thread is None:
                self._stop_event = threading.Event()
                self._thread = threading.Thread(
                    target=self._sample_loop,
                    args=(self._stop_event,),
                    name="an5d-profiler",
                    daemon=True,
                )
                self._thread.start()

    def stop(self) -> None:
        """Release the sampler; the last release stops the thread."""
        with self._lock:
            if self._refs == 0:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            thread, self._thread = self._thread, None
            self._stop_event.set()
        if thread is not None:
            thread.join(timeout=2.0)

    @property
    def running(self) -> bool:
        with self._lock:
            return self._thread is not None

    # -- arming (hot-path windows) -----------------------------------------

    def arm(self) -> None:
        """Make :meth:`window` calls real; until then they are no-ops."""
        self._armed = True

    def disarm(self) -> None:
        self._armed = False

    @contextlib.contextmanager
    def window(self, name: str = "") -> Iterator[None]:
        """Sample for the duration of a hot path, if the profiler is armed.

        The ``name`` is advisory (it shows up in the stacks themselves);
        unarmed windows cost a single attribute read.
        """
        if not self._armed:
            yield
            return
        self.start()
        try:
            yield
        finally:
            self.stop()

    # -- sampling ----------------------------------------------------------

    def _sample_loop(self, stop_event: threading.Event) -> None:
        interval = 1.0 / max(1.0, self._hz)
        me = threading.get_ident()
        while not stop_event.wait(interval):
            self._sample_once(me)

    def _sample_once(self, skip_ident: int) -> None:
        frames = sys._current_frames()
        folded: List[str] = []
        for ident, frame in frames.items():
            if ident == skip_ident:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                code = frame.f_code
                stack.append(
                    f"{os.path.basename(code.co_filename)}:{code.co_name}"
                )
                frame = frame.f_back
                depth += 1
            if stack:
                folded.append(";".join(reversed(stack)))
        del frames
        with self._lock:
            self._samples += 1
            for key in folded:
                if key in self._counts:
                    self._counts[key] += 1
                elif len(self._counts) < MAX_DISTINCT_STACKS:
                    self._counts[key] = 1
                else:
                    self._counts[_OVERFLOW_KEY] = (
                        self._counts.get(_OVERFLOW_KEY, 0) + 1
                    )

    # -- readout -----------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Cumulative folded-stack counts (copy; safe to diff later)."""
        with self._lock:
            return dict(self._counts)

    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples

    def folded(self, counts: Optional[Dict[str, int]] = None) -> str:
        """Render counts (default: cumulative) as collapse-format text."""
        source = self.snapshot() if counts is None else counts
        lines = sorted(source.items(), key=lambda item: (-item[1], item[0]))
        return "\n".join(f"{stack} {count}" for stack, count in lines) + (
            "\n" if lines else ""
        )

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._samples = 0


def folded_diff(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Counts accumulated between two snapshots (non-positive rows dropped)."""
    delta: Dict[str, int] = {}
    for stack, count in after.items():
        gained = count - before.get(stack, 0)
        if gained > 0:
            delta[stack] = gained
    return delta


#: The process-wide profiler every hot-path window and endpoint shares.
PROFILER = SamplingProfiler()


def arm_profiler() -> SamplingProfiler:
    """Arm the process-wide profiler (hot-path windows begin sampling)."""
    PROFILER.arm()
    return PROFILER


def profile_for(
    seconds: float,
    profiler: Optional[SamplingProfiler] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[str, int]:
    """Sample the whole process for ``seconds`` and return folded text.

    This is the ``GET /profile?seconds=N`` / ``an5d profile`` entry point:
    it acquires the shared profiler for a bounded window and returns the
    stacks accumulated *during that window only* plus the sample count, so
    concurrent windows and armed hot paths do not bleed into each other's
    totals beyond genuinely concurrent execution.
    """
    target = profiler if profiler is not None else PROFILER
    seconds = max(0.05, min(float(seconds), 300.0))
    before = target.snapshot()
    samples_before = target.samples
    target.start()
    try:
        time.sleep(seconds)
    finally:
        target.stop()
    window = folded_diff(before, target.snapshot())
    samples = target.samples - samples_before
    registry = metrics if metrics is not None else get_registry()
    registry.counter(
        "profile_windows_total", "Completed profiling windows"
    ).inc()
    return target.folded(window), samples


__all__ = [
    "DEFAULT_HZ",
    "PROFILER",
    "SamplingProfiler",
    "arm_profiler",
    "folded_diff",
    "profile_for",
]
