"""Edge-case coverage for ``tuning/pruning.py`` and ``tuning/search_space.py``.

These modules were previously only exercised through the autotuner; this file
pins down their behaviour on the boundaries: 1-D patterns (which have no
blocked spatial dimension at all), degenerate grids and block sizes, and
configurations sitting exactly on the register-limit pruning thresholds.
"""

import pytest

from repro import api
from repro.core.config import BlockingConfig, sconf_configuration
from repro.ir.expr import BinOp, GridRead
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.batch import ConfigBatch
from repro.model.gpu_specs import get_gpu
from repro.model.registers import estimate_registers, register_pressure_ok
from repro.stencils.library import load_pattern
from repro.tuning.autotuner import AutoTuner
from repro.tuning.exhaustive import exhaustive_search
from repro.tuning.pruning import prune_configurations, pruning_statistics
from repro.tuning.search_space import (
    REGISTER_LIMITS,
    SearchSpace,
    default_search_space,
)

V100 = get_gpu("V100")


def make_1d_pattern(dtype: str = "float") -> StencilPattern:
    """A three-point 1-D Jacobi stencil (no blocked spatial dimension)."""
    expr = BinOp(
        "+",
        BinOp("+", GridRead("A", (-1,)), GridRead("A", (0,))),
        GridRead("A", (1,)),
    )
    return StencilPattern(name="j1d3pt", ndim=1, expr=expr, dtype=dtype)


# -- search space shape ---------------------------------------------------------------


def test_default_search_space_sizes_match_paper():
    assert default_search_space(load_pattern("j2d5pt")).size() == 16 * 3 * 3
    assert default_search_space(load_pattern("j3d27pt")).size() == 8 * 4 * 2


def test_search_space_configurations_count_matches_size():
    space = default_search_space(load_pattern("j2d5pt"))
    configs = list(space.configurations())
    assert len(configs) == space.size()
    assert len(set(configs)) == len(configs)
    # Register limits multiply the enumeration only when asked for.
    with_limits = ConfigBatch.from_space(space).with_register_limits(REGISTER_LIMITS)
    assert with_limits.size == space.size() * len(REGISTER_LIMITS)


def test_sconf_space_is_a_single_point():
    # The one Sconf configuration is valid for 2D and 3D Table-3 stencils.
    for name in ("j2d5pt", "j3d27pt"):
        pattern = load_pattern(name)
        sconf_configuration(pattern).validate(pattern)


def test_empty_search_space_dimensions():
    space = SearchSpace(time_blocks=(), spatial_blocks=((128,),), stream_blocks=(256,))
    assert space.size() == 0
    assert list(space.configurations()) == []


# -- 1-D patterns ---------------------------------------------------------------------


def test_one_dimensional_pattern_has_no_valid_configuration():
    # A 1-D stencil has ndim - 1 = 0 blocked dimensions, but every
    # BlockingConfig carries at least one spatial block: nothing survives.
    pattern = make_1d_pattern()
    space = default_search_space(pattern)  # falls through to the 3D space
    survivors = prune_configurations(pattern, space.configurations(), V100)
    assert survivors == []
    stats = pruning_statistics(pattern, space.configurations(), V100)
    assert stats["kept"] == 0
    assert stats["invalid"] + stats["register_pruned"] == stats["total"]


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda pattern, grid: AutoTuner("V100").tune(pattern, grid),
        lambda pattern, grid: exhaustive_search(pattern, grid, "V100"),
        lambda pattern, grid: api.tune(pattern, grid=grid),
        lambda pattern, grid: api.exhaustive(pattern, grid=grid),
    ],
    ids=["AutoTuner.tune", "exhaustive_search", "api.tune", "api.exhaustive"],
)
def test_autotuner_raises_cleanly_for_one_dimensional_pattern(entry_point):
    # The batch engine needs no 1-D support: pruning leaves nothing, so every
    # tuning entry point reports the empty space instead of crashing.
    with pytest.raises(ValueError, match="no valid configuration"):
        entry_point(make_1d_pattern(), GridSpec((1024,), 10))


# -- degenerate grids and blocks ------------------------------------------------------


def test_degenerate_block_leaves_no_compute_region():
    # bS = 2*bT*radius exactly: the halo eats the whole block.
    pattern = load_pattern("j2d5pt")  # radius 1
    boundary = BlockingConfig(bT=4, bS=(8,))
    assert boundary.compute_region(pattern.radius) == (0,)
    assert prune_configurations(pattern, [boundary], V100) == []
    # One cell more survives structural pruning.
    survivor = BlockingConfig(bT=4, bS=(9,))
    assert prune_configurations(pattern, [survivor], V100) == [survivor]


def test_thread_block_limit_prunes_oversized_blocks():
    pattern = load_pattern("j3d27pt")
    oversized = BlockingConfig(bT=1, bS=(64, 32))  # 2048 threads > 1024
    stats = pruning_statistics(pattern, [oversized], V100)
    assert stats == {"total": 1, "invalid": 1, "register_pruned": 0, "kept": 0}


def test_high_order_pattern_prunes_high_bt():
    # radius-4 2D stencil: bT=16 needs bS > 128, so (128,) is invalid.
    pattern = load_pattern("star2d4r")
    space = default_search_space(pattern)
    survivors = prune_configurations(pattern, space.configurations(), V100)
    assert survivors  # something must survive
    assert all(c.bS[0] - 2 * c.bT * pattern.radius > 0 for c in survivors)


def test_pruning_on_tiny_grid_is_grid_independent():
    # Pruning is structural: it never looks at the grid, so the same
    # configurations survive for a degenerate 1x1 grid as for the paper's.
    pattern = load_pattern("j2d5pt")
    space = default_search_space(pattern)
    survivors = prune_configurations(pattern, space.configurations(), V100)
    tuned = AutoTuner("V100", top_k=1).tune(pattern, GridSpec((1, 1), 1))
    assert tuned.pruned_to == len(survivors)


# -- register-limit boundaries --------------------------------------------------------


def test_register_pruning_per_thread_boundary():
    # float demand = bT*(2*rad+1) + bT + 20; find the exact bT crossing 255.
    pattern = load_pattern("j2d5pt")  # radius 1 -> demand = 4*bT + 20
    # bS=256 keeps the per-SM total (252 * 256 = 64512) inside the 64K file,
    # so only the per-thread rule is in play.
    at_limit = BlockingConfig(bT=58, bS=(256,))  # 58*4 + 20 = 252 <= 255
    over_limit = BlockingConfig(bT=59, bS=(256,))  # 59*4 + 20 = 256 > 255
    assert estimate_registers(pattern, at_limit) <= V100.max_registers_per_thread
    assert estimate_registers(pattern, over_limit) > V100.max_registers_per_thread
    assert register_pressure_ok(pattern, at_limit, V100)
    assert not register_pressure_ok(pattern, over_limit, V100)


def test_register_pruning_per_sm_boundary():
    # Per-SM limit: demand * nthr <= 65536. With bS=(1024,) (nthr=1024) the
    # budget is 64 registers per thread: bT=10 -> 60 ok, bT=11 -> 64... the
    # float demand 4*bT + 20 crosses 64 exactly at bT=11.
    pattern = load_pattern("j2d5pt")
    ok = BlockingConfig(bT=10, bS=(1024,))  # 60 * 1024 = 61440 <= 65536
    boundary = BlockingConfig(bT=11, bS=(1024,))  # 64 * 1024 = 65536 <= limit
    over = BlockingConfig(bT=12, bS=(1024,))  # 68 * 1024 > 65536
    assert register_pressure_ok(pattern, ok, V100)
    assert register_pressure_ok(pattern, boundary, V100)
    assert not register_pressure_ok(pattern, over, V100)


def test_double_precision_prunes_harder_than_float():
    float_pattern = load_pattern("j2d9pt", "float")
    double_pattern = load_pattern("j2d9pt", "double")
    space = default_search_space(float_pattern)
    float_kept = pruning_statistics(float_pattern, space.configurations(), V100)["kept"]
    double_kept = pruning_statistics(double_pattern, space.configurations(), V100)["kept"]
    assert double_kept <= float_kept


def test_pruning_statistics_partition_is_exact():
    for name in ("j2d5pt", "star2d4r", "j3d27pt", "box3d2r"):
        pattern = load_pattern(name)
        space = default_search_space(pattern)
        stats = pruning_statistics(pattern, space.configurations(), V100)
        assert stats["total"] == space.size()
        assert stats["invalid"] + stats["register_pruned"] + stats["kept"] == stats["total"]
        survivors = prune_configurations(pattern, space.configurations(), V100)
        assert len(survivors) == stats["kept"]
