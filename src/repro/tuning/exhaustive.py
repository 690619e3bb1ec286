"""Exhaustive simulated search — the yardstick for the model-guided tuner.

The paper argues that the analytic model prunes the parameter space well
enough that simulating/running only the top five candidates finds a
configuration close to the best one.  This module provides the comparison:
an exhaustive sweep that simulates *every* valid configuration, and a helper
that quantifies how much performance the model-guided two-stage procedure
leaves on the table (the "tuning efficiency").

The sweep runs on the batched model engine: the whole pruned space x
register-limit cross product is evaluated in one vectorized pass over the
structure-of-arrays layout of :mod:`repro.model.batch`.  :func:`reference_search`
is the scalar oracle it is compared against — one
:class:`~repro.sim.timing.TimingSimulator` call per configuration — and no
tuning path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.batch import BatchModelEngine, ConfigBatch, prune_mask
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


def exhaustive_search(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    space: SearchSpace | None = None,
) -> ExhaustiveResult:
    """Simulate every valid configuration and return the best one.

    Candidates are laid out configuration-major, limit-minor — the
    :func:`reference_search` visit order — and the first maximum wins, so
    ties resolve to the same configuration the serial scan keeps.
    """
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    space = space or default_search_space(pattern)
    candidates = ConfigBatch.from_space(space)
    survivors = candidates.select(prune_mask(pattern, candidates, spec))
    if survivors.size == 0:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r}")
    engine = BatchModelEngine(pattern, grid, spec)
    sweep = survivors.with_register_limits(REGISTER_LIMITS)
    # Traffic is independent of the register limit: one pass over the
    # survivors feeds the whole limit-expanded sweep.
    traffic = engine.traffic(survivors).repeat(len(REGISTER_LIMITS))
    measured = engine.simulate(sweep, traffic)
    best = int(np.argmax(measured.gflops))
    if not measured.gflops[best] > 0.0:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r}")
    return ExhaustiveResult(
        best_config=sweep.config(best),
        best_gflops=float(measured.gflops[best]),
        evaluated=sweep.size,
    )


def reference_search(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    space: SearchSpace | None = None,
) -> ExhaustiveResult:
    """The scalar sweep: the oracle :func:`exhaustive_search` matches.

    Walks the pruned space one configuration and register limit at a time
    through the scalar timing simulator, keeping the first strictly-best
    result.  For tests and benchmarks only.
    """
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    space = space or default_search_space(pattern)
    simulator = TimingSimulator(spec)
    best_config: Optional[BlockingConfig] = None
    best_gflops = 0.0
    evaluated = 0
    for config in prune_configurations(pattern, space.configurations(), spec):
        for limit in REGISTER_LIMITS:
            candidate = config.with_register_limit(limit)
            gflops = simulator.simulate(pattern, grid, candidate).gflops
            evaluated += 1
            if gflops > best_gflops:
                best_gflops = gflops
                best_config = candidate
    if best_config is None:
        raise ValueError(f"no valid configuration for stencil {pattern.name!r}")
    return ExhaustiveResult(best_config=best_config, best_gflops=best_gflops, evaluated=evaluated)


@dataclass(frozen=True)
class TuningEfficiency:
    """How close the model-guided tuner gets to the exhaustive optimum."""

    guided: TuningResult
    exhaustive: ExhaustiveResult

    @property
    def efficiency(self) -> float:
        """Guided-to-exhaustive performance ratio (1.0 = found the optimum).

        Both searches raise rather than return a zero-GFLOP/s best.
        """
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
    space: SearchSpace | None = None,
) -> TuningEfficiency:
    """Run both procedures on the same space and report the efficiency."""
    spec = get_gpu(gpu) if isinstance(gpu, str) else gpu
    guided = AutoTuner(spec).tune(pattern, grid, space)
    exhaustive = exhaustive_search(pattern, grid, spec, space)
    return TuningEfficiency(guided=guided, exhaustive=exhaustive)
