"""Equivalence tests for the batched model engine (`repro.model.batch`).

The batch engine's contract is bit-for-bit agreement with the scalar model:
identical pruning masks, identical ``PerformancePrediction`` objects and
identical ``SimulatedMeasurement`` objects for every configuration of the
full default search space, across patterns, dtypes and both GPUs.
"""

import numpy as np
import pytest

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec
from repro.model.batch import (
    BatchModelEngine,
    BatchUnsupportedError,
    ConfigBatch,
    prune_mask,
    register_mask,
    supports_pattern,
    validity_mask,
)
from repro.model.gpu_specs import get_gpu
from repro.model.registers import register_pressure_ok
from repro.model.roofline import predict_performance
from repro.sim.timing import TimingSimulator
from repro.stencils.library import load_pattern
from repro.tuning.autotuner import AutoTuner, reference_rank
from repro.tuning.exhaustive import exhaustive_search, reference_search
from repro.tuning.pruning import prune_configurations, pruning_statistics
from repro.tuning.search_space import REGISTER_LIMITS, SearchSpace, default_search_space

#: >= 3 patterns (star, box with sqrt/division, 3-D box) x 2 GPUs, spanning
#: both dimensionalities and both dtypes.
EQUIVALENCE_CASES = [
    ("j2d5pt", "float", "V100", GridSpec((4096, 4096), 500)),
    ("j2d5pt", "double", "P100", GridSpec((4096, 4096), 500)),
    ("gradient2d", "float", "P100", GridSpec((4096, 4096), 500)),
    ("j3d27pt", "double", "V100", GridSpec((256, 256, 256), 500)),
    ("star3d2r", "float", "V100", GridSpec((256, 256, 256), 500)),
]

CASE_IDS = [f"{name}-{dtype}-{gpu}" for name, dtype, gpu, _ in EQUIVALENCE_CASES]


@pytest.fixture(params=EQUIVALENCE_CASES, ids=CASE_IDS)
def case(request):
    name, dtype, gpu_name, grid = request.param
    pattern = load_pattern(name, dtype)
    return pattern, grid, get_gpu(gpu_name)


# -- layout ---------------------------------------------------------------------------


def test_from_space_matches_enumeration_order(case):
    pattern, _, _ = case
    space = default_search_space(pattern)
    batch = ConfigBatch.from_space(space)
    assert batch.size == space.size()
    assert list(batch.configs()) == list(space.configurations())


def test_from_space_with_register_limits(case):
    pattern, _, _ = case
    space = default_search_space(pattern)
    batch = ConfigBatch.from_space(space, include_register_limits=True)
    assert list(batch.configs()) == list(space.configurations(include_register_limits=True))


def test_register_limit_cross_product_is_config_major():
    base = ConfigBatch.from_configs(
        [BlockingConfig(bT=2, bS=(128,)), BlockingConfig(bT=4, bS=(256,), hS=512)]
    )
    sweep = base.with_register_limits(REGISTER_LIMITS)
    expected = [
        config.with_register_limit(limit)
        for config in base.configs()
        for limit in REGISTER_LIMITS
    ]
    assert list(sweep.configs()) == expected


def test_from_configs_rejects_unbatchable_shapes():
    with pytest.raises(BatchUnsupportedError):
        ConfigBatch.from_configs([])
    with pytest.raises(BatchUnsupportedError):
        ConfigBatch.from_configs(
            [BlockingConfig(bT=1, bS=(128,)), BlockingConfig(bT=1, bS=(16, 16))]
        )
    with pytest.raises(BatchUnsupportedError):
        ConfigBatch.from_configs([BlockingConfig(bT=1, bS=(128,), double_buffer=False)])


# -- pruning masks --------------------------------------------------------------------


def test_pruning_masks_match_scalar_predicates(case):
    pattern, _, gpu = case
    space = default_search_space(pattern)
    configs = list(space.configurations())
    batch = ConfigBatch.from_space(space)
    valid = validity_mask(pattern, batch)
    registers = register_mask(pattern, batch, gpu)
    for config, v, r in zip(configs, valid, registers):
        assert bool(v) == config.is_valid(pattern), config.describe()
        assert bool(r) == register_pressure_ok(pattern, config, gpu), config.describe()
    survivors = prune_configurations(pattern, configs, gpu)
    assert survivors == list(batch.select(prune_mask(pattern, batch, gpu)).configs())
    stats = pruning_statistics(pattern, configs, gpu)
    assert stats["kept"] == len(survivors)
    assert stats["invalid"] + stats["register_pruned"] + stats["kept"] == stats["total"]


#: ``pruning_statistics`` over the default spaces on V100.
SCALAR_PRUNING_CASES = [
    ("j2d5pt", "double", GridSpec((4096, 4096), 100),
     {"total": 144, "invalid": 0, "register_pruned": 6, "kept": 138}),
    ("star3d1r", "double", GridSpec((256, 256, 256), 100),
     {"total": 64, "invalid": 6, "register_pruned": 14, "kept": 44}),
]


@pytest.mark.parametrize(
    "name,dtype,grid,stats", SCALAR_PRUNING_CASES, ids=[c[0] for c in SCALAR_PRUNING_CASES]
)
def test_scalar_pruning_oracle_never_touches_the_batch_layer(monkeypatch, name, dtype, grid, stats):
    from repro.model import batch as batch_module

    pattern = load_pattern(name, dtype)
    gpu = get_gpu("V100")
    space = default_search_space(pattern)
    columns = ConfigBatch.from_space(space)
    expected_survivors = list(columns.select(prune_mask(pattern, columns, gpu)).configs())
    expected_rank = AutoTuner(gpu).rank(pattern, grid)

    def forbidden(*args, **kwargs):
        raise AssertionError("the scalar oracle reached the batch layer")

    monkeypatch.setattr(batch_module, "validity_mask", forbidden)
    monkeypatch.setattr(batch_module, "register_mask", forbidden)
    monkeypatch.setattr(batch_module.ConfigBatch, "from_configs", forbidden)

    assert prune_configurations(pattern, space.configurations(), gpu) == expected_survivors
    assert pruning_statistics(pattern, space.configurations(), gpu) == stats
    assert reference_rank(pattern, grid, gpu) == expected_rank


# -- model equivalence ----------------------------------------------------------------


def test_predictions_bit_identical_across_full_space(case):
    pattern, grid, gpu = case
    space = default_search_space(pattern)
    base = ConfigBatch.from_space(space)
    survivors = base.select(prune_mask(pattern, base, gpu))
    engine = BatchModelEngine(pattern, grid, gpu)
    predicted = engine.predict(survivors)
    for index, config in enumerate(survivors.configs()):
        scalar = predict_performance(pattern, grid, config, gpu)
        batched = engine.prediction(predicted, index)
        # Dataclass equality covers every field exactly, including the
        # nested traffic totals and thread-work counts.
        assert batched == scalar, config.describe()


def test_simulations_bit_identical_across_full_space(case):
    pattern, grid, gpu = case
    space = default_search_space(pattern)
    base = ConfigBatch.from_space(space)
    survivors = base.select(prune_mask(pattern, base, gpu))
    sweep = survivors.with_register_limits(REGISTER_LIMITS)
    engine = BatchModelEngine(pattern, grid, gpu)
    measured = engine.simulate(sweep)
    simulator = TimingSimulator(gpu)
    for index, config in enumerate(sweep.configs()):
        scalar = simulator.simulate(pattern, grid, config)
        batched = engine.measurement(measured, index)
        assert batched == scalar, config.describe()


def test_exhaustive_engines_agree_exactly(case):
    pattern, grid, gpu = case
    batched = exhaustive_search(pattern, grid, gpu)
    scalar = reference_search(pattern, grid, gpu)
    assert batched == scalar  # exact float equality on best_gflops


def test_rank_engines_agree_exactly(case):
    pattern, grid, gpu = case
    batched = AutoTuner(gpu).rank(pattern, grid)
    scalar = reference_rank(pattern, grid, gpu)
    assert batched == scalar


def test_tune_engines_agree_exactly(case):
    pattern, grid, gpu = case
    tuner = AutoTuner(gpu)
    space = default_search_space(pattern)
    batched = tuner.tune(pattern, grid)
    scalar = tuner.tune_ranked(
        pattern, grid, reference_rank(pattern, grid, gpu, space), explored=space.size()
    )
    assert batched == scalar


# -- unlaunchable and empty-space edges -----------------------------------------------


def test_unlaunchable_configuration_matches_scalar():
    # bT=16 with bS=1024 exceeds the register file per SM after capping:
    # such rows must mirror TimingSimulator._unlaunchable exactly.
    pattern = load_pattern("j2d5pt", "double")
    grid = GridSpec((4096, 4096), 100)
    gpu = get_gpu("V100")
    config = BlockingConfig(bT=16, bS=(1024,), register_limit=96)
    batch = ConfigBatch.from_configs([config])
    engine = BatchModelEngine(pattern, grid, gpu)
    batched = engine.measurement(engine.simulate(batch), 0)
    scalar = TimingSimulator(gpu).simulate(pattern, grid, config)
    assert scalar.bottleneck == "unlaunchable" and scalar.gflops == 0.0
    assert batched == scalar


def test_batch_exhaustive_rejects_empty_space(v100):
    pattern = load_pattern("j2d5pt")
    space = SearchSpace(time_blocks=(), spatial_blocks=((128,),), stream_blocks=(256,))
    with pytest.raises(ValueError, match="no valid configuration"):
        exhaustive_search(pattern, GridSpec((4096, 4096), 100), v100, space)


# -- pattern support ------------------------------------------------------------------


def test_supports_two_and_three_dimensional_patterns():
    assert supports_pattern(load_pattern("j2d5pt"))
    assert supports_pattern(load_pattern("star3d1r"))


# -- campaign predict batching --------------------------------------------------------


def test_campaign_predict_batch_payloads_match_scalar_runner():
    from repro.campaign.jobs import JobSpec, run_predict_jobs
    from repro.sim.timing import simulate_performance

    specs = [
        JobSpec("predict", "j2d5pt", "V100", "float", (512, 512), 50,
                (("bT", bT), ("bS", (256,))))
        for bT in (1, 2, 4, 8)
    ]
    pattern = load_pattern("j2d5pt", "float")
    grid = GridSpec((512, 512), 50)
    for payload, bT in zip(run_predict_jobs(specs), (1, 2, 4, 8)):
        config = BlockingConfig(bT=bT, bS=(256,))
        predicted = predict_performance(pattern, grid, config, get_gpu("V100"))
        simulated = simulate_performance(pattern, grid, config, "V100")
        assert payload == {
            "bT": bT,
            "bS": [256],
            "hS": None,
            "regs": None,
            "model_gflops": round(predicted.gflops, 10),
            "simulated_gflops": round(simulated.gflops, 10),
            "model_bottleneck": predicted.bottleneck,
            "simulated_bottleneck": simulated.bottleneck,
        }


def test_campaign_predict_batch_rejects_mixed_groups():
    from repro.campaign.jobs import JobSpec, run_predict_jobs

    mixed = [
        JobSpec("predict", "j2d5pt", "V100", "float", (512, 512), 50),
        JobSpec("predict", "j2d5pt", "P100", "float", (512, 512), 50),
    ]
    with pytest.raises(ValueError):
        run_predict_jobs(mixed)


def _forbid_scalar_model(monkeypatch):
    """Make every scalar predict/simulate call fail the test."""
    import repro.model.roofline
    import repro.sim.timing

    def forbidden(*args, **kwargs):
        raise AssertionError("a predict answer reached the scalar model")

    monkeypatch.setattr(repro.model.roofline, "predict_performance", forbidden)
    monkeypatch.setattr(repro.sim.timing, "simulate_performance", forbidden)


def _batch_payload(pattern, grid, config, gpu):
    """A predict payload computed straight off the batch engine."""
    engine = BatchModelEngine(pattern, grid, get_gpu(gpu))
    batch = ConfigBatch.from_configs([config])
    predicted = engine.predict(batch)
    simulated = engine.simulate(batch)
    return {
        "bT": config.bT,
        "bS": list(config.bS),
        "hS": config.hS,
        "regs": config.register_limit,
        "model_gflops": round(float(predicted.gflops[0]), 10),
        "simulated_gflops": round(float(simulated.gflops[0]), 10),
        "model_bottleneck": predicted.bottleneck_name(0),
        "simulated_bottleneck": simulated.bottleneck_name(0),
    }


def test_campaign_predict_invalid_job_fails_alone_on_the_batch_engine(monkeypatch):
    # star3d4r's default 32x32 block leaves no compute region at bT=4, r=4:
    # that job fails on its own record with the model layer's error, while
    # j2d5pt is answered by the batch engine — the scalar model is never run.
    from repro.campaign import CampaignScheduler, CampaignSpec, ResultStore

    _forbid_scalar_model(monkeypatch)
    spec = CampaignSpec(
        benchmarks=("j2d5pt", "star3d4r"), gpus=("V100",), dtypes=("float",),
        kinds=("predict",),
    )
    jobs = {job.pattern: job for job in spec.expand()}
    with ResultStore(":memory:") as store:
        outcome = CampaignScheduler(spec, store).run()
        assert outcome.failed == 1
        assert any("star3d4r" in failure for failure in outcome.failures)
        stored = store.lookup(jobs["j2d5pt"])
        assert stored.ok
        assert stored.payload == _batch_payload(
            load_pattern("j2d5pt"), jobs["j2d5pt"].grid(),
            BlockingConfig(bT=4, bS=(256,)), "V100",
        )
        failed = store.lookup(jobs["star3d4r"])
        assert not failed.ok
        assert failed.payload["error"].startswith("ConfigurationError: block size 32")


def test_campaign_predict_group_keeps_valid_rows_beside_an_invalid_job(monkeypatch):
    from repro.campaign import CampaignScheduler, CampaignSpec, ResultStore
    from repro.campaign.jobs import JobSpec, predict_batch_key

    _forbid_scalar_model(monkeypatch)
    valid, invalid = (
        JobSpec("predict", "j2d5pt", "V100", "float", (512, 512), 50,
                (("bT", bT), ("bS", (128,))))
        for bT in (4, 64)
    )
    assert predict_batch_key(valid) == predict_batch_key(invalid)

    class TwoJobScheduler(CampaignScheduler):
        def jobs(self):
            return [valid, invalid]

    spec = CampaignSpec(benchmarks=("j2d5pt",), kinds=("predict",))
    with ResultStore(":memory:") as store:
        outcome = TwoJobScheduler(spec, store, retries=0).run()
        assert (outcome.executed, outcome.failed) == (2, 1)
        assert store.lookup(valid).payload == _batch_payload(
            load_pattern("j2d5pt"), GridSpec((512, 512), 50),
            BlockingConfig(bT=4, bS=(128,)), "V100",
        )
        failed = store.lookup(invalid)
        assert not failed.ok
        assert failed.payload["error"] == (
            "ConfigurationError: block size 128 leaves no compute region for bT=64, rad=1"
        )


# -- randomized equivalence sweep -----------------------------------------------------
#
# The named cases above pin the two default search spaces; this sweep samples
# hundreds of (pattern, grid, GPU, dtype) spaces well outside them — small
# spatial blocks, huge stream blocks, non-square grids, every Table 3 stencil
# — and holds the batch engine to the same bit-for-bit contract on each.
# Everything derives from one seed, so a failure reproduces exactly.

RANDOM_SEED = 20260726
RANDOM_SPACE_COUNT = 200

_AXES = {
    2: dict(
        time=tuple(range(1, 17)),
        spatial=((32,), (64,), (128,), (256,), (512,), (1024,)),
        stream=(None, 128, 256, 512, 1024, 2048),
        interiors=((512, 512), (1024, 1024), (2048, 1024), (4096, 4096), (16384, 512)),
    ),
    3: dict(
        time=tuple(range(1, 9)),
        spatial=((8, 8), (16, 16), (16, 32), (32, 16), (32, 32), (64, 16), (8, 64)),
        stream=(None, 64, 128, 256),
        interiors=((48, 48, 48), (64, 64, 64), (128, 96, 64), (256, 256, 256)),
    ),
}
_TIME_STEPS = (50, 100, 500, 1000)


def _pick(rng, values, count):
    """Sample ``count`` distinct entries, preserving declaration order."""
    chosen = sorted(rng.choice(len(values), size=count, replace=False).tolist())
    return tuple(values[i] for i in chosen)


def _random_case(rng, names, gpus):
    name = names[int(rng.integers(len(names)))]
    dtype = ("float", "double")[int(rng.integers(2))]
    pattern = load_pattern(name, dtype)
    axes = _AXES[pattern.ndim]
    space = SearchSpace(
        time_blocks=_pick(rng, axes["time"], int(rng.integers(1, 4))),
        spatial_blocks=_pick(rng, axes["spatial"], int(rng.integers(1, 3))),
        stream_blocks=_pick(rng, axes["stream"], int(rng.integers(1, 3))),
        register_limits=_pick(rng, REGISTER_LIMITS, int(rng.integers(1, 3))),
    )
    interiors = axes["interiors"]
    grid = GridSpec(
        interiors[int(rng.integers(len(interiors)))],
        _TIME_STEPS[int(rng.integers(len(_TIME_STEPS)))],
    )
    return pattern, grid, gpus[int(rng.integers(len(gpus)))], space


def test_randomized_spaces_match_scalar_oracle():
    from repro.stencils.library import BENCHMARKS

    rng = np.random.default_rng(RANDOM_SEED)
    names = [name for name, benchmark in BENCHMARKS.items() if benchmark.ndim in (2, 3)]
    gpus = (get_gpu("V100"), get_gpu("P100"))
    simulators = {gpu: TimingSimulator(gpu) for gpu in gpus}
    compared = 0
    for case_index in range(RANDOM_SPACE_COUNT):
        pattern, grid, gpu, space = _random_case(rng, names, gpus)
        label = f"case {case_index}: {pattern.name} {grid.interior} {space}"
        configs = list(space.configurations())
        batch = ConfigBatch.from_space(space)
        assert list(batch.configs()) == configs, label

        # Pruning decisions agree configuration by configuration.
        survivors_scalar = prune_configurations(pattern, configs, gpu)
        survivors = batch.select(prune_mask(pattern, batch, gpu))
        assert list(survivors.configs()) == survivors_scalar, label
        if not survivors_scalar:
            continue

        engine = BatchModelEngine(pattern, grid, gpu)
        predicted = engine.predict(survivors)
        for index, config in enumerate(survivors.configs()):
            scalar = predict_performance(pattern, grid, config, gpu)
            assert engine.prediction(predicted, index) == scalar, (
                f"{label}: {config.describe()}"
            )

        sweep = survivors.with_register_limits(space.register_limits)
        measured = engine.simulate(sweep)
        for index, config in enumerate(sweep.configs()):
            scalar = simulators[gpu].simulate(pattern, grid, config)
            assert engine.measurement(measured, index) == scalar, (
                f"{label}: {config.describe()}"
            )
            compared += 1
    # The sweep must have really exercised the engines, not pruned everything.
    assert compared >= RANDOM_SPACE_COUNT
