"""Model and telemetry paths the paper's stencils never take.

Bounded memo caches that fill up, stencils no blocking can run, register
spills of the STENCILGEN baseline, zero-sample metrics, the profiler's
reference counting and stack cap, ``top`` rows of unreachable instances,
and the IR helpers' negation and fallback cases.
"""

from __future__ import annotations

import dataclasses
import math
import time

import pytest

from repro import api
from repro.baselines.stencilgen import StencilGenBaseline
from repro.campaign import ResultStore
from repro.campaign.jobs import CampaignSpec, JobSpec, run_job
from repro.campaign.scheduler import CampaignScheduler, _predict_results
from repro.core.config import BlockingConfig, ConfigurationError
from repro.ir.classify import is_associative, sum_terms
from repro.ir.expr import BinOp, Const, GridRead, UnaryOp
from repro.ir.flops import count_flops
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model import occupancy as occupancy_module
from repro.model import traffic as traffic_module
from repro.model.batch import BatchModelEngine, BatchUnsupportedError, ConfigBatch, validity_mask
from repro.model.gpu_specs import get_gpu
from repro.model.registers import stencilgen_registers
from repro.obs import profile as profile_module
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, bucket_quantile, parse_prometheus
from repro.obs.top import _histogram_p99, instance_row, render, stream_records
from repro.service import CampaignServer
from repro.stencils import generators
from repro.stencils.library import load_pattern
from repro.tuning.exhaustive import exhaustive_search, reference_search

V100 = get_gpu("V100")
A = "A"
GRID_3D = GridSpec((64, 64, 64), 4)


# -- stencils no blocking can run --------------------------------------------------------


def test_a_stencil_no_blocking_fits_has_no_exhaustive_optimum():
    # No blocking of a radius-8 3-D star fits in shared memory in double.
    pattern = load_pattern("star3d8r", "double")
    for search in (exhaustive_search, reference_search):
        with pytest.raises(ValueError, match="no valid configuration for stencil 'star3d8r'"):
            search(pattern, GRID_3D, V100)


def test_an_exhaustive_sweep_that_launches_nothing_has_no_optimum(monkeypatch):
    real_simulate = BatchModelEngine.simulate

    def unlaunchable(self, batch, traffic):
        measured = real_simulate(self, batch, traffic)
        return dataclasses.replace(measured, gflops=measured.gflops * 0.0)

    monkeypatch.setattr(BatchModelEngine, "simulate", unlaunchable)
    with pytest.raises(ValueError, match="no valid configuration for stencil 'j2d5pt'"):
        exhaustive_search(load_pattern("j2d5pt"), GridSpec((512, 512), 8), V100)


def test_stencilgen_cannot_launch_what_does_not_fit_and_spills_under_a_register_cap():
    baseline = StencilGenBaseline(V100)
    unlaunchable = baseline.simulate(
        load_pattern("star3d8r", "double"), GRID_3D, BlockingConfig(bT=1, bS=(32, 32))
    )
    assert unlaunchable.gflops == 0.0 and math.isinf(unlaunchable.time_s)
    assert unlaunchable.notes.startswith("unlaunchable (")
    pattern = load_pattern("star3d2r", "float")
    free = BlockingConfig(bT=4, bS=(32, 32))
    capped = free.with_register_limit(32)
    assert stencilgen_registers(pattern, free) > 32
    assert baseline.simulate(pattern, GRID_3D, capped).gflops < baseline.simulate(
        pattern, GRID_3D, free
    ).gflops


def test_stencilgen_holds_two_registers_per_double_value():
    config = BlockingConfig(bT=2, bS=(32, 32))
    single = stencilgen_registers(load_pattern("star3d1r", "float"), config)
    double = stencilgen_registers(load_pattern("star3d1r", "double"), config)
    # Every one of the bT x (2r + 1) retained values takes a second register.
    assert double - single >= config.bT * 3


def test_model_accuracy_of_a_zero_prediction_is_zero():
    result = api.tune("j2d5pt", time_steps=10)
    zero = dataclasses.replace(result.best.predicted, gflops=0.0)
    best = dataclasses.replace(result.best, predicted=zero)
    assert dataclasses.replace(result, best=best).model_accuracy == 0.0


# -- the batch engine -----------------------------------------------------------------


def test_the_batch_engine_refuses_what_it_cannot_lay_out():
    line = StencilPattern("line", 1, BinOp("+", GridRead(A, (-1,)), GridRead(A, (1,))))
    with pytest.raises(BatchUnsupportedError, match="batch engine supports 2-D/3-D patterns, got 1-D"):
        BatchModelEngine(line, GridSpec((64,), 4), V100)
    with pytest.raises(ConfigurationError, match="grid dimensionality does not match the stencil"):
        BatchModelEngine(load_pattern("j2d5pt"), GRID_3D, V100)
    configs_2d = ConfigBatch.from_configs([BlockingConfig(bT=1, bS=(32,))])
    assert not validity_mask(load_pattern("star3d1r"), configs_2d).any()


# -- memo caches ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "module,cache,cap,compute",
    [
        (occupancy_module, "_OCCUPANCY_CACHE", "_OCCUPANCY_CACHE_MAX",
         lambda p, g, c: occupancy_module.occupancy_for(p, g, c, V100)),
        (traffic_module, "_TRAFFIC_CACHE", "_TRAFFIC_CACHE_MAX", traffic_module.compute_traffic),
    ],
    ids=["occupancy", "traffic"],
)
def test_a_full_memo_cache_is_dropped_and_answers_stay_the_same(module, cache, cap, compute, monkeypatch):
    pattern, grid = load_pattern("j2d5pt"), GridSpec((512, 512), 8)
    configs = [BlockingConfig(bT=bT, bS=(64,)) for bT in (1, 2, 1)]
    expected = [compute(pattern, grid, config) for config in configs]
    monkeypatch.setattr(module, cache, {})
    monkeypatch.setattr(module, cap, 1)
    assert [compute(pattern, grid, config) for config in configs] == expected
    assert len(getattr(module, cache)) == 1


# -- IR helpers ---------------------------------------------------------------------------


def test_negation_costs_no_flop_and_splits_into_negated_terms():
    expr = BinOp("+", UnaryOp("-", GridRead(A, (1, 0))), BinOp("*", Const(2.0), GridRead(A, (0, 0))))
    assert count_flops(expr).total == count_flops(
        BinOp("+", GridRead(A, (1, 0)), BinOp("*", Const(2.0), GridRead(A, (0, 0))))
    ).total
    terms = sum_terms(BinOp("+", GridRead(A, (0, 0)), UnaryOp("-", UnaryOp("-", GridRead(A, (0, 1))))))
    assert terms == [GridRead(A, (0, 0)), GridRead(A, (0, 1))]  # two negations cancel
    # A term that divides its read is not a pure re-association.
    assert not is_associative(BinOp("+", BinOp("/", GridRead(A, (0, 0)), Const(3.0)), GridRead(A, (0, 1))))


def test_weights_without_a_centre_put_the_rounding_residual_on_the_largest():
    offsets = [(-1, 0), (1, 0), (0, 2)]
    assert generators._anchor_index(offsets, [0.5, 2.0, 1.0]) == 1
    terms = generators.normalised_terms(offsets)
    assert math.fsum(weight for _, weight in terms) == pytest.approx(1.0, abs=5e-10)
    assert all(weight > 0 for _, weight in terms)


# -- campaign edges -----------------------------------------------------------------------


def test_a_failed_predict_job_raises_from_run_job():
    with pytest.raises(ConfigurationError, match="leaves no compute region"):
        run_job(JobSpec("predict", "star3d4r", "V100", "float", (48, 48, 48), 4))


def test_an_unknown_stencil_fails_every_predict_job_of_its_group():
    jobs = [JobSpec("predict", "no-such-stencil", "V100", "float", (64, 64), steps) for steps in (4, 5)]
    records = list(_predict_results(jobs))
    assert [status for _, status, _, _ in records] == ["failed", "failed"]
    assert all("no-such-stencil" in payload["error"] for _, _, payload, _ in records)


def test_campaigns_describe_fuzz_seeds():
    assert CampaignSpec(kinds=("fuzz",), fuzz_seed=7, fuzz_count=3).describe() == (
        "fuzz seed 7: 3 generated stencil(s) x 1 GPU(s)"
    )
    mixed = CampaignSpec(benchmarks=("j2d5pt",), kinds=("predict", "fuzz"), fuzz_seed=7, fuzz_count=2)
    assert mixed.describe().endswith(" + fuzz seed 7 x 2")


def test_an_exhaustive_campaign_counts_every_configuration_it_simulated(tmp_path):
    spec = CampaignSpec(
        benchmarks=("j2d5pt",), kinds=("exhaustive",), time_steps=10, interior_2d=(256, 256)
    )
    with ResultStore(tmp_path / "ex.sqlite") as store:
        outcome = CampaignScheduler(spec, store).run()
        (result,) = store.query(kind="exhaustive")
    assert outcome.ok and outcome.configs_evaluated == result.payload["evaluated"] > 0


def test_a_timed_out_job_is_counted(tmp_path, monkeypatch):
    import repro.campaign.scheduler as scheduler_module

    def sleepy(spec):
        time.sleep(2.0)
        return {}

    monkeypatch.setattr(scheduler_module, "run_job", sleepy)
    registry = MetricsRegistry()
    spec = CampaignSpec(benchmarks=("j2d5pt",), kinds=("tune",))
    with ResultStore(tmp_path / "slow.sqlite") as store:
        outcome = CampaignScheduler(spec, store, timeout=0.05, retries=0, metrics=registry).run()
    assert not outcome.ok
    assert parse_prometheus(registry.render())["job_timeouts_total"] == [({}, 1.0)]


def test_a_closed_store_opens_no_new_connection(tmp_path):
    import sqlite3
    import threading

    store = ResultStore(tmp_path / "closed.sqlite")
    store.close()
    errors = []
    reader = threading.Thread(target=lambda: errors.append(_catch(store.count)))
    reader.start()
    reader.join(30)
    assert [(type(error), str(error)) for error in errors] == [
        (sqlite3.ProgrammingError, "store is closed")
    ]


def _catch(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 — returned for the assertion
        return error
    return None


# -- metrics ------------------------------------------------------------------------------


def test_metrics_with_no_samples_render_and_summarise_as_zero():
    registry = MetricsRegistry()
    registry.counter("idle_total", "never incremented")
    registry.gauge("ceiling", "unbounded").set(math.inf)
    latency = registry.histogram("idle_seconds", "never observed", buckets=(0.1, 1.0))
    text = registry.render()
    assert "idle_total 0" in text.splitlines() and "ceiling +Inf" in text.splitlines()
    assert latency.quantile(0.99) == 0.0
    assert NULL_REGISTRY.histogram("x", "y").summary() == {
        "count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
    }


def test_a_rank_past_every_counted_sample_clamps_to_the_top_edge():
    assert bucket_quantile((0.1, 1.0), [1, 1, 0], total=5, q=0.99) == 1.0


# -- profiler -------------------------------------------------------------------------------


def test_the_profiler_thread_lives_while_anyone_holds_it():
    profiler = profile_module.SamplingProfiler(hz=200)
    profiler.stop()  # never started: nothing to release
    profiler.start()
    profiler.start()
    profiler.stop()
    assert profiler._thread is not None and profiler._thread.is_alive()
    profiler.stop()
    assert profiler._thread is None


def test_stacks_past_the_distinct_cap_fold_into_one_overflow_row(monkeypatch):
    monkeypatch.setattr(profile_module, "MAX_DISTINCT_STACKS", 0)
    profiler = profile_module.SamplingProfiler(hz=200)
    profiler._sample_once(skip_ident=-1)
    assert set(profiler.snapshot()) == {profile_module._OVERFLOW_KEY}


# -- top ------------------------------------------------------------------------------------


def test_top_marks_an_instance_it_could_not_scrape():
    row = instance_row({"id": "w9", "role": "worker", "url": "http://w9", "live": False}, None)
    line = next(line for line in render([row]).splitlines() if line.startswith("w9"))
    assert line.split() == ["w9", "worker", "no", "(unreachable)"]


def test_top_history_ignores_histograms_with_no_samples():
    snapshot = {"request_seconds": {"a": {"count": 0, "p99": 9.0}, "b": {"count": 3, "p99": 0.25}}}
    assert _histogram_p99(snapshot, "request_seconds") == 0.25


def test_stream_records_skips_keep_alive_lines(tmp_path):
    with CampaignServer(host="127.0.0.1", port=0, store=tmp_path / "ka.sqlite") as server:
        url = f"{server.url}/events/stream?event=never_emitted&timeout=1.2"
        assert list(stream_records(url, timeout=10)) == []
