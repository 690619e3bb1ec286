"""Exhaustive simulated search — the yardstick for the model-guided tuner.

The paper argues that the analytic model prunes the parameter space well
enough that simulating/running only the top five candidates finds a
configuration close to the best one.  This module provides the comparison:
an exhaustive sweep that simulates *every* valid configuration, and a helper
that quantifies how much performance the model-guided two-stage procedure
leaves on the table (the "tuning efficiency").

Two engines drive the sweep:

* ``batch`` (the default for 2-D/3-D stencils) evaluates the whole pruned
  space x register-limit cross product in one vectorized pass over the
  structure-of-arrays layout of :mod:`repro.model.batch` — no worker
  processes, no per-config Python objects, identical results to the scalar
  sweep down to the last bit;
* ``scalar`` walks one configuration at a time through the scalar timing
  simulator.  Only this engine uses the ``workers`` process pool: fanning
  out is worthwhile for genuinely simulator-backed per-config work, whereas
  the old behaviour of forking model-only evaluations re-imported the
  library and re-warmed every per-process model cache just to do array-op
  amounts of arithmetic.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.batch import BatchModelEngine, ConfigBatch, prune_mask, resolve_engine
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.sim.timing import TimingSimulator
from repro.tuning.autotuner import AutoTuner, TuningResult
from repro.tuning.pruning import prune_configurations
from repro.tuning.search_space import REGISTER_LIMITS, SearchSpace, default_search_space


@dataclass(frozen=True)
class ExhaustiveResult:
    """Best configuration found by simulating the entire (pruned) space."""

    best_config: BlockingConfig
    best_gflops: float
    evaluated: int

    def as_row(self) -> dict[str, object]:
        return {
            "bT": self.best_config.bT,
            "bS": "x".join(str(v) for v in self.best_config.bS),
            "hS": self.best_config.hS,
            "regs": self.best_config.register_limit,
            "gflops": round(self.best_gflops, 1),
            "evaluated": self.evaluated,
        }


def _search_batched(
    pattern: StencilPattern,
    grid: GridSpec,
    spec: GpuSpec,
    space: SearchSpace,
    register_limits: Tuple[Optional[int], ...],
) -> ExhaustiveResult:
    """One vectorized pass over the whole pruned space x register limits.

    Candidates are laid out configuration-major, limit-minor — the scalar
    sweep's visit order — and the first maximum wins, so ties resolve to the
    same configuration the serial scan would keep.
    """
    candidates = ConfigBatch.from_space(space)
    survivors = candidates.select(prune_mask(pattern, candidates, spec))
    if survivors.size == 0:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r}")
    engine = BatchModelEngine(pattern, grid, spec)
    sweep = survivors.with_register_limits(register_limits)
    # Traffic is independent of the register limit: one pass over the
    # survivors feeds the whole limit-expanded sweep.
    traffic = engine.traffic(survivors).repeat(len(register_limits))
    measured = engine.simulate(sweep, traffic)
    best = int(np.argmax(measured.gflops)) if sweep.size else 0
    if not sweep.size or not measured.gflops[best] > 0.0:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r}")
    return ExhaustiveResult(
        best_config=sweep.config(best),
        best_gflops=float(measured.gflops[best]),
        evaluated=sweep.size,
    )


_ChunkResult = Tuple[Optional[BlockingConfig], float, int]


def _search_chunk(
    args: Tuple[StencilPattern, GridSpec, GpuSpec, Sequence[BlockingConfig], Tuple[Optional[int], ...]],
) -> _ChunkResult:
    """Simulate one contiguous slice of the pruned space (worker function)."""
    pattern, grid, spec, configs, register_limits = args
    simulator = TimingSimulator(spec)
    best_config: Optional[BlockingConfig] = None
    best_gflops = 0.0
    evaluated = 0
    for config in configs:
        for limit in register_limits:
            candidate = config.with_register_limit(limit)
            gflops = simulator.simulate(pattern, grid, candidate).gflops
            evaluated += 1
            if gflops > best_gflops:
                best_gflops = gflops
                best_config = candidate
    return best_config, best_gflops, evaluated


def _search_parallel(
    pattern: StencilPattern,
    grid: GridSpec,
    spec: GpuSpec,
    survivors: List[BlockingConfig],
    register_limits: Tuple[Optional[int], ...],
    workers: int,
) -> List[_ChunkResult]:
    """Fan contiguous chunks of the space out over a process pool.

    Chunks are combined in order with a strict greater-than comparison, so
    the winner is identical to the serial sweep's (first best wins ties).
    """
    workers = min(workers, len(survivors))
    chunk_size = (len(survivors) + workers - 1) // workers
    chunks = [survivors[i : i + chunk_size] for i in range(0, len(survivors), chunk_size)]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    with context.Pool(processes=len(chunks)) as pool:
        return pool.map(
            _search_chunk,
            [(pattern, grid, spec, chunk, register_limits) for chunk in chunks],
        )


def _search_scalar(
    pattern: StencilPattern,
    grid: GridSpec,
    spec: GpuSpec,
    space: SearchSpace,
    register_limits: Tuple[Optional[int], ...],
    workers: int,
) -> ExhaustiveResult:
    """The per-config scalar sweep, optionally fanned out over a pool."""
    survivors = prune_configurations(pattern, space.configurations(), spec)

    chunk_results: List[_ChunkResult]
    if workers > 1 and len(survivors) > 1:
        try:
            chunk_results = _search_parallel(
                pattern, grid, spec, survivors, register_limits, workers
            )
        except OSError:
            # The pool could not start (no fork/semaphore support, process
            # limits): sweep serially instead.
            chunk_results = [_search_chunk((pattern, grid, spec, survivors, register_limits))]
    else:
        chunk_results = [_search_chunk((pattern, grid, spec, survivors, register_limits))]

    best_config: Optional[BlockingConfig] = None
    best_gflops = 0.0
    evaluated = 0
    for chunk_config, chunk_gflops, chunk_evaluated in chunk_results:
        evaluated += chunk_evaluated
        if chunk_config is not None and chunk_gflops > best_gflops:
            best_gflops = chunk_gflops
            best_config = chunk_config
    if best_config is None:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r}")
    return ExhaustiveResult(best_config=best_config, best_gflops=best_gflops, evaluated=evaluated)


def exhaustive_search(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    space: SearchSpace | None = None,
    register_limits: Sequence[Optional[int]] = REGISTER_LIMITS,
    workers: int = 1,
    engine: str = "auto",
) -> ExhaustiveResult:
    """Simulate every valid configuration and return the best one.

    ``engine`` selects how the space is evaluated: ``"batch"`` (one
    vectorized pass, the ``"auto"`` choice for 2-D/3-D stencils),
    ``"scalar"`` (per-config sweep), or ``"auto"``.  ``workers`` > 1 splits
    the *scalar* sweep into contiguous chunks over a ``multiprocessing``
    pool; the batch engine is in-process array arithmetic and ignores it.
    Every engine returns the identical best configuration and GFLOPS.
    """
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    space = space or default_search_space(pattern)
    limits = tuple(register_limits)
    if resolve_engine(engine, pattern) == "batch":
        return _search_batched(pattern, grid, spec, space, limits)
    return _search_scalar(pattern, grid, spec, space, limits, workers)


@dataclass(frozen=True)
class TuningEfficiency:
    """How close the model-guided tuner gets to the exhaustive optimum."""

    guided: TuningResult
    exhaustive: ExhaustiveResult

    @property
    def efficiency(self) -> float:
        """Guided-to-exhaustive performance ratio (1.0 = found the optimum)."""
        if self.exhaustive.best_gflops == 0:
            return 0.0
        return self.guided.best.measured_gflops / self.exhaustive.best_gflops

    @property
    def evaluations_saved(self) -> int:
        """Simulated-run budget saved by model guidance."""
        guided_runs = len(self.guided.top_candidates) * len(REGISTER_LIMITS)
        return self.exhaustive.evaluated - guided_runs


def compare_guided_vs_exhaustive(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    top_k: int = 5,
    space: SearchSpace | None = None,
    workers: int = 1,
    engine: str = "auto",
) -> TuningEfficiency:
    """Run both procedures on the same space and report the efficiency."""
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    guided = AutoTuner(spec, top_k=top_k, engine=engine).tune(pattern, grid, space)
    exhaustive = exhaustive_search(pattern, grid, spec, space, workers=workers, engine=engine)
    return TuningEfficiency(guided=guided, exhaustive=exhaustive)
