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
    from repro.campaign.jobs import JobSpec, run_job, run_predict_jobs

    specs = [
        JobSpec("predict", "j2d5pt", "V100", "float", (512, 512), 50,
                (("bT", bT), ("bS", (256,))))
        for bT in (1, 2, 4, 8)
    ]
    payloads = run_predict_jobs(specs)
    assert payloads == [run_job(spec) for spec in specs]


def test_campaign_predict_batch_rejects_mixed_groups():
    from repro.campaign.jobs import JobSpec, run_predict_jobs

    mixed = [
        JobSpec("predict", "j2d5pt", "V100", "float", (512, 512), 50),
        JobSpec("predict", "j2d5pt", "P100", "float", (512, 512), 50),
    ]
    with pytest.raises(ValueError):
        run_predict_jobs(mixed)


def test_campaign_predict_group_failure_falls_back_to_per_job_records():
    # star3d4r's default 32x32 block leaves no compute region at bT=4, r=4:
    # its batch group raises, is handed back to the per-job path and recorded
    # as one failure, while the j2d5pt group is still served batched.
    from repro.campaign import CampaignScheduler, CampaignSpec, ResultStore
    from repro.campaign.jobs import run_job

    spec = CampaignSpec(
        benchmarks=("j2d5pt", "star3d4r"), gpus=("V100",), dtypes=("float",),
        kinds=("predict",),
    )
    with ResultStore(":memory:") as store:
        outcome = CampaignScheduler(spec, store).run()
        assert outcome.failed == 1
        assert any("star3d4r" in failure for failure in outcome.failures)
        (j2d5pt,) = [job for job in spec.expand() if job.pattern == "j2d5pt"]
        stored = store.lookup(j2d5pt)
        assert stored.ok
        assert stored.payload == run_job(j2d5pt)


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
