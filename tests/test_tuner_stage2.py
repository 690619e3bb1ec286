"""Stage 2 of the autotuner against a scalar reference.

``AutoTuner.tune_ranked`` simulates the finalists x register limits as one
batch.  The reference below is the per-finalist, per-limit loop over the
scalar :class:`TimingSimulator` with its tie rules (a later limit or
finalist replaces the best only when strictly faster); both must produce
``==`` tuning results, measurements included.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

from repro import api
from repro.campaign import CampaignScheduler, CampaignSpec, JobSpec, ResultStore
from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.batch import BatchModelEngine
from repro.model.gpu_specs import get_gpu
from repro.model.registers import estimate_registers
from repro.model.roofline import predict_performance
from repro.obs import MetricsRegistry
from repro.service.hotcache import HotModelCache
from repro.sim.timing import TimingSimulator
from repro.stencils.library import BENCHMARKS, get_benchmark, load_pattern
from repro.tuning.autotuner import AutoTuner, TuningCandidate, TuningResult
from repro.tuning.search_space import REGISTER_LIMITS, default_search_space


def scalar_stage2(
    tuner: AutoTuner,
    pattern: StencilPattern,
    grid: GridSpec,
    ranked: Sequence[TuningCandidate],
    explored: int,
    register_limits: Sequence[Optional[int]] = REGISTER_LIMITS,
) -> TuningResult:
    simulator = TimingSimulator(tuner.gpu)
    finalists = []
    for candidate in ranked[: tuner.top_k]:
        best: Optional[TuningCandidate] = None
        for limit in register_limits:
            config = candidate.config.with_register_limit(limit)
            scored = TuningCandidate(
                config, candidate.predicted, simulator.simulate(pattern, grid, config)
            )
            if best is None or scored.measured_gflops > best.measured_gflops:
                best = scored
        finalists.append(best)
    best = finalists[0]
    for finalist in finalists[1:]:
        if finalist.measured_gflops > best.measured_gflops:
            best = finalist
    return TuningResult(
        pattern_name=pattern.name,
        gpu_name=tuner.gpu.name,
        dtype=pattern.dtype,
        best=best,
        top_candidates=finalists,
        explored=explored,
        pruned_to=len(ranked),
    )


@pytest.mark.parametrize("gpu", ["V100", "P100"])
@pytest.mark.parametrize("dtype", ["float", "double"])
@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_stage2_equals_scalar_reference(name, dtype, gpu):
    pattern = load_pattern(name, dtype)
    grid = get_benchmark(name).default_grid()
    tuner = AutoTuner(gpu, top_k=5)
    space = default_search_space(pattern)
    ranked = tuner.rank(pattern, grid, space)
    batched = tuner.tune_ranked(pattern, grid, ranked, explored=space.size())
    assert batched == scalar_stage2(tuner, pattern, grid, ranked, explored=space.size())


def test_register_limit_tie_keeps_the_first_limit_and_finalist():
    pattern = load_pattern("j2d5pt")
    grid = get_benchmark("j2d5pt").default_grid()
    config = BlockingConfig(bT=1, bS=(256,), hS=256)
    # Demand below every cap: each limit simulates to the same measurement.
    assert estimate_registers(pattern, config) == 24 < min(REGISTER_LIMITS[1:])
    gpu = get_gpu("V100")
    simulator = TimingSimulator(gpu)
    measurements = {
        simulator.simulate(pattern, grid, config.with_register_limit(limit))
        for limit in REGISTER_LIMITS
    }
    assert len(measurements) == 1

    candidate = TuningCandidate(config, predict_performance(pattern, grid, config, gpu))
    tuner = AutoTuner(gpu, top_k=5)
    # The same candidate twice also ties across finalists.
    result = tuner.tune_ranked(pattern, grid, [candidate, candidate], explored=2)
    assert result.best_config.register_limit is None
    assert result.best is result.top_candidates[0]
    assert result == scalar_stage2(tuner, pattern, grid, [candidate, candidate], explored=2)


def test_tuning_paths_never_call_the_scalar_simulator(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("tuning called TimingSimulator.simulate")

    monkeypatch.setattr(TimingSimulator, "simulate", forbidden)
    assert api.tune("j2d5pt").best_config.bT >= 1

    spec = JobSpec("tune", "j2d5pt", "V100", "float", (512, 512), 100, (("top_k", 2),))
    payload, hit = HotModelCache(MetricsRegistry()).tune(spec)
    assert not hit and payload["bT"] >= 1

    campaign = CampaignSpec(benchmarks=("j2d5pt",), kinds=("tune",), time_steps=100, top_k=2)
    with ResultStore(":memory:") as store:
        outcome = CampaignScheduler(campaign, store).run()
    assert outcome.ok and outcome.executed == 1


def test_tuning_builds_no_more_rows_than_it_simulates(monkeypatch):
    rows = []
    prediction = BatchModelEngine.prediction

    def counted(self, result, index):
        rows.append(index)
        return prediction(self, result, index)

    monkeypatch.setattr(BatchModelEngine, "prediction", counted)
    pattern = load_pattern("j2d5pt")
    result = AutoTuner("V100", top_k=3).tune(pattern, get_benchmark("j2d5pt").default_grid())
    assert result.pruned_to > 3
    assert 0 < len(rows) <= 3

    rows.clear()
    spec = JobSpec("tune", "j2d5pt", "V100", "float", (512, 512), 100, (("top_k", 2),))
    payload, hit = HotModelCache(MetricsRegistry()).tune(spec)
    assert not hit and payload["pruned_to"] > 2
    assert 0 < len(rows) <= 2
