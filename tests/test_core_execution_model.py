"""Tests for the N.5D execution model (Section 4.1 geometry)."""

import math

import pytest

from repro.core.config import BlockingConfig, ConfigurationError
from repro.core.execution_model import ExecutionModel, ThreadCategory
from repro.ir.stencil import GridSpec
from repro.sim.executor import BlockedStencilExecutor


def make_model(pattern, interior, bT=4, bS=(64,), hS=None, time_steps=100):
    config = BlockingConfig(bT=bT, bS=bS, hS=hS)
    return ExecutionModel(pattern, GridSpec(interior, time_steps), config)


def test_paper_ntb_formula(j2d5pt):
    # ntb = prod(ceil(IS_i / (bS_i - 2*bT*rad)))
    model = make_model(j2d5pt, (512, 512), bT=4, bS=(64,))
    assert model.ntb == math.ceil(512 / (64 - 8))
    model3 = make_model(j2d5pt, (512, 500), bT=4, bS=(64,))
    assert model3.ntb == math.ceil(500 / 56)


def test_ntb_for_3d(star3d1r):
    model = make_model(star3d1r, (128, 96, 96), bT=2, bS=(32, 32))
    per_dim = model.blocks_per_dimension()
    assert per_dim == (math.ceil(96 / 28), math.ceil(96 / 28))
    assert model.ntb == per_dim[0] * per_dim[1]


def test_stream_division_block_count(j2d5pt):
    model = make_model(j2d5pt, (512, 512), bT=4, bS=(64,), hS=128)
    assert model.num_stream_blocks == 4
    assert model.total_thread_blocks == 4 * model.ntb


def test_stream_overlap_formula(j2d5pt, j2d9pt):
    # 2 * sum_{T=0}^{bT-1} rad*(bT-T)
    model = make_model(j2d5pt, (512, 512), bT=4, bS=(64,), hS=128)
    assert model.stream_overlap_subplanes() == 2 * (4 + 3 + 2 + 1)
    model2 = make_model(j2d9pt, (512, 512), bT=2, bS=(64,), hS=128)
    assert model2.stream_overlap_subplanes() == 2 * 2 * (2 + 1)


def test_total_streamed_subplanes_without_division(j2d5pt):
    model = make_model(j2d5pt, (512, 512), bT=4, bS=(64,), hS=None)
    assert model.streamed_subplane_loads() == 512 + 2
    assert model.streamed_subplane_compute_steps() == 4 * (512 + 2)


def test_total_streamed_subplanes_with_division(j2d5pt):
    # Each of the 3 internal boundaries loads bT*rad planes per side at T = 0
    # and recomputes 2*rad*(bT - T) planes at each combined step T.
    model = make_model(j2d5pt, (512, 512), bT=4, bS=(64,), hS=128)
    assert model.streamed_subplane_loads() == 512 + 2 + 3 * 2 * 4
    assert model.streamed_subplane_compute_steps() == 4 * (512 + 2) + 3 * 2 * (3 + 2 + 1 + 0)


def test_subplanes_per_stream_block(j2d5pt):
    undivided = make_model(j2d5pt, (512, 512), bT=4, bS=(64,), hS=None)
    assert undivided.subplanes_per_stream_block() == 512 + 2
    divided = make_model(j2d5pt, (512, 512), bT=4, bS=(64,), hS=128)
    assert divided.subplanes_per_stream_block() == 128 + 2 + divided.stream_overlap_subplanes()


def test_valid_region_shrinks_with_time_step(j2d5pt, j2d9pt):
    # Section 4.1: the valid region shrinks by 2*T*rad per blocked dimension.
    for bT in range(1, 5):
        assert make_model(j2d5pt, (512, 512), bT=bT, bS=(64,)).compute_sizes == (64 - 2 * bT,)
        assert make_model(j2d9pt, (512, 512), bT=bT, bS=(64,)).compute_sizes == (64 - 4 * bT,)


def test_category_counts_cover_all_positions(j2d5pt):
    model = make_model(j2d5pt, (512, 512), bT=4, bS=(64,))
    counts = model.thread_category_counts()
    total = sum(counts.values())
    assert total == model.ntb * model.nthr


def test_valid_threads_cover_grid_exactly(j2d5pt, star3d1r):
    model = make_model(j2d5pt, (500, 500), bT=4, bS=(64,))
    counts = model.thread_category_counts()
    assert counts[ThreadCategory.VALID] == 500

    model3 = make_model(star3d1r, (64, 60, 60), bT=2, bS=(32, 32))
    counts3 = model3.thread_category_counts()
    assert counts3[ThreadCategory.VALID] == 60 * 60


def test_boundary_threads_present_for_edge_blocks(j2d5pt):
    model = make_model(j2d5pt, (512, 512), bT=4, bS=(64,))
    counts = model.thread_category_counts()
    assert counts[ThreadCategory.BOUNDARY] >= 2


def test_redundant_fraction_grows_with_bt(j2d5pt):
    low = make_model(j2d5pt, (512, 512), bT=1, bS=(64,)).redundant_compute_fraction()
    high = make_model(j2d5pt, (512, 512), bT=8, bS=(64,)).redundant_compute_fraction()
    assert high > low


def test_redundant_fraction_shrinks_with_block_size(j2d5pt):
    small = make_model(j2d5pt, (4096, 4096), bT=4, bS=(64,)).redundant_compute_fraction()
    large = make_model(j2d5pt, (4096, 4096), bT=4, bS=(512,)).redundant_compute_fraction()
    assert large < small


def _tiles(pattern, interior, bT, bS, hS=None):
    config = BlockingConfig(bT=bT, bS=bS, hS=hS)
    return list(BlockedStencilExecutor(pattern, GridSpec(interior, 10), config).tiles(bT))


def test_blocks_enumeration_matches_ntb(j2d5pt, star3d1r):
    model = make_model(j2d5pt, (300, 300), bT=2, bS=(64,))
    tiles = _tiles(j2d5pt, (300, 300), bT=2, bS=(64,))
    assert len(tiles) == model.ntb
    # Compute regions tile the grid without gaps.
    assert sum(hi - lo for lo, hi in (tile.store[1] for tile in tiles)) == 300

    model3 = make_model(star3d1r, (32, 70, 70), bT=2, bS=(32, 32))
    assert len(_tiles(star3d1r, (32, 70, 70), bT=2, bS=(32, 32))) == model3.ntb


def test_block_geometry_origins(j2d5pt):
    # Padded coordinates (rad = 1): a block stores its 60-cell compute region
    # and loads bT*rad = 2 halo cells on each side, 64 = bS cells in all.
    second = _tiles(j2d5pt, (300, 300), bT=2, bS=(64,))[1]
    assert second.store[1] == (1 + 60, 1 + 120)
    assert second.load[1] == (1 + 60 - 2, 1 + 120 + 2)


def test_stream_ranges_cover_extent(j2d5pt):
    model = make_model(j2d5pt, (500, 500), bT=4, bS=(64,), hS=128)
    ranges = sorted({tile.store[0] for tile in _tiles(j2d5pt, (500, 500), bT=4, bS=(64,), hS=128)})
    assert len(ranges) == model.num_stream_blocks
    assert ranges[0] == (1, 1 + 128) and ranges[-1][1] == 1 + 500
    assert sum(stop - start for start, stop in ranges) == 500


def test_grid_dimension_mismatch_rejected(j2d5pt):
    with pytest.raises(ConfigurationError):
        ExecutionModel(j2d5pt, GridSpec((64, 64, 64), 10), BlockingConfig(bT=2, bS=(32,)))


def test_summary_contains_key_fields(j2d5pt):
    summary = make_model(j2d5pt, (512, 512), bT=4, bS=(64,)).summary()
    for key in ("nthr", "ntb", "halo_per_side", "redundant_fraction", "threads_valid"):
        assert key in summary
