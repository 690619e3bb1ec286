"""Correctness tests: the blocked N.5D schedule vs the naive reference.

These are the most important tests in the repository — they establish that
AN5D's overlapped space/time blocking (halos, streaming division, remainder
launches) computes exactly what the original stencil loop computes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.config import BlockingConfig
from repro.ir.stencil import GridSpec
from repro.sim.executor import (
    STACK_ELEMENTS,
    BlockedStencilExecutor,
    verify_blocking,
)
from repro.stencils.generators import box_stencil, star_stencil
from repro.stencils.library import load_pattern
from repro.stencils.reference import make_initial_grid, run_reference


def check(pattern_name, interior, time_steps, dtype="float", **config_kwargs):
    pattern = load_pattern(pattern_name, dtype)
    grid = GridSpec(interior, time_steps)
    config = BlockingConfig(**config_kwargs)
    result = verify_blocking(pattern, grid, config)
    assert result.matches, (
        f"{pattern_name} {config.describe()}: max relative error {result.max_relative_error}"
    )


# -- 2D stencils ---------------------------------------------------------------


def test_j2d5pt_basic_blocking():
    check("j2d5pt", (72, 72), 9, bT=3, bS=(32,))


def test_j2d5pt_high_degree_temporal_blocking():
    check("j2d5pt", (96, 96), 20, bT=10, bS=(64,))


def test_j2d5pt_with_stream_division():
    check("j2d5pt", (80, 80), 8, bT=4, bS=(32,), hS=24)


def test_j2d5pt_time_steps_not_multiple_of_bt():
    check("j2d5pt", (64, 64), 11, bT=4, bS=(32,))


def test_j2d5pt_single_time_step():
    check("j2d5pt", (48, 48), 1, bT=4, bS=(32,))


def test_j2d5pt_double_precision():
    check("j2d5pt", (64, 64), 10, dtype="double", bT=5, bS=(32,))


def test_j2d9pt_second_order():
    check("j2d9pt", (72, 72), 8, bT=3, bS=(48,))


def test_j2d9pt_gol_box():
    check("j2d9pt-gol", (64, 64), 9, bT=3, bS=(32,))


def test_gradient2d_nonlinear():
    check("gradient2d", (64, 64), 6, bT=3, bS=(32,))


def test_star2d4r_high_order():
    check("star2d4r", (80, 80), 6, bT=2, bS=(48,))


def test_box2d2r():
    check("box2d2r", (64, 64), 6, bT=2, bS=(40,))


def test_grid_not_multiple_of_block():
    check("j2d5pt", (70, 58), 8, bT=4, bS=(32,))


def test_tiny_grid_single_block():
    check("j2d5pt", (24, 24), 6, bT=3, bS=(32,))


# -- 3D stencils -----------------------------------------------------------------


def test_star3d1r_blocking():
    check("star3d1r", (20, 36, 36), 6, bT=2, bS=(16, 16))


def test_star3d2r_blocking():
    check("star3d2r", (16, 40, 40), 4, bT=2, bS=(24, 24))


def test_j3d27pt_blocking():
    check("j3d27pt", (16, 32, 32), 6, bT=3, bS=(24, 24))


def test_box3d1r_with_stream_division():
    check("box3d1r", (24, 32, 32), 4, bT=2, bS=(16, 16), hS=12)


def test_3d_uneven_grid():
    check("star3d1r", (18, 30, 26), 5, bT=2, bS=(16, 16))


# -- executor mechanics -------------------------------------------------------------


def test_launch_schedule_remainder():
    pattern = load_pattern("j2d5pt")
    executor = BlockedStencilExecutor(pattern, GridSpec((48, 48), 11), BlockingConfig(bT=4, bS=(32,)))
    assert executor.launch_schedule(11) == [4, 4, 3]
    assert executor.launch_schedule(8) == [4, 4]
    assert executor.launch_schedule(0) == []


def test_tiles_cover_store_region_exactly():
    pattern = load_pattern("j2d5pt")
    grid = GridSpec((70, 70), 4)
    executor = BlockedStencilExecutor(pattern, grid, BlockingConfig(bT=2, bS=(32,), hS=20))
    stored = np.zeros(grid.padded(pattern.radius), dtype=bool)
    for tile in executor.tiles(2):
        slices = tuple(slice(lo, hi) for lo, hi in tile.store)
        assert not stored[slices].any(), "store regions must not overlap"
        stored[slices] = True
    interior = tuple(slice(1, -1) for _ in range(2))
    assert stored[interior].all(), "store regions must cover the interior"
    assert not stored[0, :].any() and not stored[:, 0].any(), "boundary ring is never stored"


def test_tile_loads_are_clipped_to_padded_array():
    pattern = load_pattern("j2d5pt")
    grid = GridSpec((64, 64), 4)
    executor = BlockedStencilExecutor(pattern, grid, BlockingConfig(bT=4, bS=(32,)))
    padded = grid.padded(pattern.radius)
    for tile in executor.tiles(4):
        for (lo, hi), dim in zip(tile.load, padded):
            assert 0 <= lo <= hi <= dim


def test_boundary_ring_is_preserved():
    pattern = load_pattern("j2d5pt")
    grid = GridSpec((48, 48), 6)
    initial = make_initial_grid(pattern, grid, seed=3)
    config = BlockingConfig(bT=3, bS=(32,))
    blocked = BlockedStencilExecutor(pattern, grid, config).run(initial.copy())
    assert np.array_equal(blocked[0, :], initial[0, :])
    assert np.array_equal(blocked[:, -1], initial[:, -1])


def test_blocked_result_differs_from_initial():
    pattern = load_pattern("j2d5pt")
    grid = GridSpec((48, 48), 6)
    initial = make_initial_grid(pattern, grid, seed=3)
    config = BlockingConfig(bT=3, bS=(32,))
    blocked = BlockedStencilExecutor(pattern, grid, config).run(initial.copy())
    assert not np.allclose(blocked, initial)


def test_invalid_configuration_rejected():
    pattern = load_pattern("j2d5pt")
    with pytest.raises(Exception):
        BlockedStencilExecutor(pattern, GridSpec((48, 48), 4), BlockingConfig(bT=20, bS=(32,)))


def test_verification_reports_error_magnitude():
    pattern = load_pattern("j2d5pt")
    result = verify_blocking(pattern, GridSpec((48, 48), 6), BlockingConfig(bT=3, bS=(32,)))
    assert result.matches
    assert result.max_relative_error < 1e-5
    assert bool(result)


def test_different_seeds_give_different_grids():
    pattern = load_pattern("j2d5pt")
    grid = GridSpec((32, 32), 2)
    a = make_initial_grid(pattern, grid, seed=0)
    b = make_initial_grid(pattern, grid, seed=1)
    assert not np.allclose(a, b)


def test_reference_and_blocked_share_dtype():
    pattern = load_pattern("j2d5pt", "double")
    grid = GridSpec((32, 32), 3)
    initial = make_initial_grid(pattern, grid, seed=0)
    blocked = BlockedStencilExecutor(pattern, grid, BlockingConfig(bT=3, bS=(24,))).run(initial)
    reference = run_reference(pattern, grid)
    assert blocked.dtype == reference.dtype == np.float64


# -- tile groups ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    ndim=st.integers(2, 3),
    radius=st.integers(1, 4),
    box=st.booleans(),
    bT=st.integers(1, 6),
    bS=st.integers(8, 128),
    hS=st.one_of(st.none(), st.integers(4, 40)),
    extents=st.lists(st.integers(1, 700), min_size=3, max_size=3),
)
# A 700 x 100 grid in one 702 x 102 tile, which alone exceeds the stack cap.
@example(ndim=2, radius=1, box=False, bT=2, bS=128, hS=None, extents=[700, 299, 1])
def test_tile_groups_partition_tiles_by_local_geometry(ndim, radius, box, bT, bS, hS, extents):
    pattern = (box_stencil if box else star_stencil)(ndim, radius)
    config = BlockingConfig(bT=bT, bS=(bS,) * (ndim - 1), hS=hS)
    assume(config.is_valid(pattern))
    # 2-D tiles may be big enough to exceed the stack cap alone; 3-D grids
    # stay small.
    if ndim == 2:
        interior = (extents[0], 1 + extents[1] % 200)
    else:
        interior = tuple(1 + e % 60 for e in extents)
    # Only the tiling is inspected: the NumPy engine builds nothing.
    executor = BlockedStencilExecutor(pattern, GridSpec(interior, bT), config, kernel_mode="compiled")
    rad, padded = pattern.radius, executor.grid.padded(pattern.radius)

    tiles = list(executor.tiles(bT))
    grouped = [tile for group in executor.tile_groups(bT) for tile in group.tiles]
    assert sorted(grouped, key=repr) == sorted(tiles, key=repr)
    for group in executor.tile_groups(bT):
        for tile in group.tiles:
            assert tuple(hi - lo for lo, hi in tile.load) == group.shape
            assert group.base == tuple(
                (max(max(lo, rad) - lo, rad), min(min(hi, dim - rad) - lo, hi - lo - rad))
                for (lo, hi), dim in zip(tile.load, padded)
            )
            assert group.store == tuple(
                (s_lo - l_lo, s_hi - l_lo) for (s_lo, s_hi), (l_lo, _) in zip(tile.store, tile.load)
            )
        assert group.stack_size == 1 or group.stack_size * np.prod(group.shape) <= STACK_ELEMENTS


def test_interior_tiles_share_one_group():
    pattern = load_pattern("star3d1r")
    grid = GridSpec((48, 48, 48), 4)
    executor = BlockedStencilExecutor(pattern, grid, BlockingConfig(bT=4, bS=(16, 16)))
    groups = executor.tile_groups(4)
    # 6 x 6 tiles: 16 interior, 16 edge (4 sides) and 4 corner tiles.
    assert len(list(executor.tiles(4))) == 36
    assert sorted(len(group.tiles) for group in groups) == [1, 1, 1, 1] + [4] * 4 + [16]
