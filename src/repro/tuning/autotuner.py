"""The two-stage autotuner (Section 6.3).

Stage 1 ranks every surviving configuration with the analytic model (this is
the part the paper describes as "searched in a few seconds").  Stage 2 takes
the top ``k`` (5 in the paper) candidates, tries each with the candidate
register limits, "runs" them on the timing simulator — the stand-in for the
actual GPU measurements — and returns the configuration with the best
simulated performance.

Both stages run on the batched model engine (:mod:`repro.model.batch`).
Stage 1 prunes and predicts the whole space as a handful of array
operations; the stable descending sort reproduces the scalar ranking exactly
(identical predictions, identical tie order).  Stage 2 packs the finalists x
register limits into one batch and simulates it in a single vectorised call.
The scalar model and :class:`~repro.sim.timing.TimingSimulator` remain the
oracle: :func:`reference_rank` is the scalar stage-1 ranking the tests and
``benchmarks/bench_sweep.py`` compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.batch import BatchModelEngine, ConfigBatch, prune_mask
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.model.roofline import PerformancePrediction, predict_performance
from repro.sim.timing import SimulatedMeasurement
from repro.tuning.pruning import prune_configurations
from repro.tuning.search_space import REGISTER_LIMITS, SearchSpace, default_search_space


@dataclass(frozen=True)
class TuningCandidate:
    """One configuration with its model prediction and simulated measurement."""

    config: BlockingConfig
    predicted: PerformancePrediction
    measured: Optional[SimulatedMeasurement] = None

    @property
    def predicted_gflops(self) -> float:
        return self.predicted.gflops

    @property
    def measured_gflops(self) -> float:
        return self.measured.gflops if self.measured is not None else 0.0


@dataclass(frozen=True)
class TuningResult:
    """Outcome of tuning one stencil for one GPU and data type."""

    pattern_name: str
    gpu_name: str
    dtype: str
    best: TuningCandidate
    top_candidates: List[TuningCandidate]
    explored: int
    pruned_to: int

    @property
    def best_config(self) -> BlockingConfig:
        return self.best.config

    @property
    def model_accuracy(self) -> float:
        """Measured-to-predicted ratio (the paper's model accuracy metric)."""
        if self.best.predicted_gflops == 0:
            return 0.0
        return self.best.measured_gflops / self.best.predicted_gflops

    def as_row(self) -> dict[str, object]:
        config = self.best_config
        return {
            "pattern": self.pattern_name,
            "gpu": self.gpu_name,
            "dtype": self.dtype,
            "bT": config.bT,
            "bS": "x".join(str(v) for v in config.bS),
            "hS": config.hS if config.hS is not None else "-",
            "regs": config.register_limit if config.register_limit is not None else "-",
            "tuned_gflops": round(self.best.measured_gflops, 1),
            "model_gflops": round(self.best.predicted_gflops, 1),
        }


def reference_rank(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec,
    space: SearchSpace | None = None,
) -> List[TuningCandidate]:
    """The scalar stage-1 ranking: the oracle :meth:`AutoTuner.rank` matches.

    One :func:`predict_performance` call per pruned configuration, sorted
    descending by predicted GFLOPS (``list.sort`` is stable, so ties keep
    enumeration order).  No tuning path calls this; it exists for the tests
    and benchmarks that compare the batch engine against the scalar model.
    """
    space = space or default_search_space(pattern)
    configurations = prune_configurations(pattern, space.configurations(), gpu)
    candidates = [
        TuningCandidate(config, predict_performance(pattern, grid, config, gpu))
        for config in configurations
    ]
    candidates.sort(key=lambda c: c.predicted_gflops, reverse=True)
    return candidates


class AutoTuner:
    """Model-guided tuner for one device."""

    def __init__(self, gpu: GpuSpec | str, top_k: int = 5) -> None:
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        self.top_k = top_k

    # -- stage 1: model ranking -------------------------------------------------
    def rank(
        self,
        pattern: StencilPattern,
        grid: GridSpec,
        space: SearchSpace | None = None,
    ) -> List[TuningCandidate]:
        """Rank all pruned configurations by predicted performance.

        Pruning and prediction run over the whole space as arrays.  A stable
        sort on the negated predictions reproduces :func:`reference_rank`'s
        ordering: descending by predicted GFLOPS, enumeration order on ties.
        """
        space = space or default_search_space(pattern)
        candidates = ConfigBatch.from_space(space)
        survivors = candidates.select(prune_mask(pattern, candidates, self.gpu))
        if survivors.size == 0:
            return []
        model = BatchModelEngine(pattern, grid, self.gpu)
        predicted = model.predict(survivors)
        order = np.argsort(-predicted.gflops, kind="stable")
        return [
            TuningCandidate(survivors.config(i), model.prediction(predicted, i))
            for i in order
        ]

    # -- stage 2: simulated measurement -----------------------------------------
    def tune_ranked(
        self,
        pattern: StencilPattern,
        grid: GridSpec,
        ranked: Sequence[TuningCandidate],
        explored: int,
        register_limits: Sequence[Optional[int]] = REGISTER_LIMITS,
    ) -> TuningResult:
        """Stage 2 only: simulate the top candidates of a precomputed ranking.

        Callers that cache the stage-1 ranking (the service's hot model-batch
        cache) re-enter tuning here; the result is exactly what :meth:`tune`
        returns for the ranking it would have computed itself.
        """
        if not ranked:
            raise ValueError(
                f"no valid configuration for stencil {pattern.name!r} on {self.gpu.name}"
            )
        head = ranked[: self.top_k]
        batch = ConfigBatch.from_configs([c.config for c in head]).with_register_limits(
            register_limits
        )
        engine = BatchModelEngine(pattern, grid, self.gpu)
        measured = engine.simulate(batch)
        # Rows are finalist-major, limit-minor.  ``argmax`` and ``max`` both
        # keep the first maximum: ties go to the earlier limit, then to the
        # higher-ranked finalist.
        limits = len(register_limits)
        choice = np.argmax(measured.gflops.reshape(len(head), limits), axis=1)
        finalists = [
            TuningCandidate(
                candidate.config.with_register_limit(register_limits[column]),
                candidate.predicted,
                engine.measurement(measured, row * limits + column),
            )
            for row, (candidate, column) in enumerate(zip(head, choice))
        ]
        best = max(finalists, key=lambda c: c.measured_gflops)
        return TuningResult(
            pattern_name=pattern.name,
            gpu_name=self.gpu.name,
            dtype=pattern.dtype,
            best=best,
            top_candidates=finalists,
            explored=explored,
            pruned_to=len(ranked),
        )

    def tune(
        self,
        pattern: StencilPattern,
        grid: GridSpec,
        space: SearchSpace | None = None,
        register_limits: Sequence[Optional[int]] = REGISTER_LIMITS,
    ) -> TuningResult:
        """Full tuning: prune, rank, simulate the top candidates, pick the best."""
        space = space or default_search_space(pattern)
        ranked = self.rank(pattern, grid, space)
        return self.tune_ranked(
            pattern, grid, ranked, explored=space.size(), register_limits=register_limits
        )


def tune(
    pattern: StencilPattern,
    grid: GridSpec,
    gpu: GpuSpec | str,
    top_k: int = 5,
) -> TuningResult:
    """Convenience wrapper: tune ``pattern`` for ``gpu`` over ``grid``."""
    return AutoTuner(gpu, top_k).tune(pattern, grid)
