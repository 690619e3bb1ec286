"""Property-based tests (Hypothesis) for core invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.associative import decompose_partial_sums
from repro.core.config import BlockingConfig
from repro.core.execution_model import ExecutionModel, ThreadCategory
from repro.core.register_alloc import FixedRegisterAllocation
from repro.core.shared_memory import an5d_shared_memory_plan, stencilgen_shared_memory_plan
from repro.ir.expr import evaluate
from repro.ir.stencil import GridSpec
from repro.sim.executor import verify_blocking
from repro.stencils.generators import box_stencil, star_stencil

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

stencil_strategy = st.builds(
    lambda kind, ndim, radius: (star_stencil if kind else box_stencil)(ndim, radius),
    st.booleans(),
    st.integers(2, 3),
    st.integers(1, 3),
)


# -- IR invariants ---------------------------------------------------------------


@_SETTINGS
@given(stencil_strategy)
def test_radius_matches_max_offset(pattern):
    assert pattern.radius == max(abs(c) for o in pattern.offsets for c in o)


@_SETTINGS
@given(stencil_strategy)
def test_offset_set_is_symmetric(pattern):
    offsets = set(pattern.offsets)
    assert all(tuple(-c for c in o) in offsets for o in offsets)


@_SETTINGS
@given(stencil_strategy)
def test_alu_efficiency_in_half_one_range(pattern):
    assert 0.5 <= pattern.flops.alu_efficiency <= 1.0


@_SETTINGS
@given(stencil_strategy)
def test_partial_sums_equal_direct_evaluation(pattern):
    steps = decompose_partial_sums(pattern)

    def reader(read):
        return 0.5 + 0.25 * sum(read.offset) + 0.125 * read.offset[-1]

    direct = evaluate(pattern.expr, reader)
    recomposed = sum(evaluate(step.expr, reader) for step in steps)
    assert math.isclose(direct, recomposed, rel_tol=1e-9)


# -- blocking geometry invariants ----------------------------------------------------


@_SETTINGS
@given(
    pattern=stencil_strategy,
    bT=st.integers(1, 6),
    block=st.sampled_from([32, 48, 64]),
    extent=st.integers(48, 200),
)
def test_valid_threads_always_cover_grid(pattern, bT, block, extent):
    blocked_dims = pattern.ndim - 1
    config = BlockingConfig(bT=bT, bS=(block,) * blocked_dims)
    assume(config.is_valid(pattern))
    assume(config.nthr <= 1024)
    grid = GridSpec((extent,) * pattern.ndim, 8)
    model = ExecutionModel(pattern, grid, config)
    counts = model.thread_category_counts()
    expected = 1
    for dim_extent in grid.interior[1:]:
        expected *= dim_extent
    assert counts[ThreadCategory.VALID] == expected
    assert sum(counts.values()) == model.ntb * model.nthr


@_SETTINGS
@given(pattern=stencil_strategy, bT=st.integers(1, 12))
def test_halo_formula_matches_dependences(pattern, bT):
    # bT fused steps of a stencil whose farthest read is `reach` cells away
    # depend on cells bT * reach away along each blocked dimension.
    config = BlockingConfig(bT=bT, bS=(32,) * (pattern.ndim - 1))
    reach = max(abs(c) for offset in pattern.offsets for c in offset)
    assert config.halo_per_side(pattern.radius) == bT * reach


@_SETTINGS
@given(pattern=stencil_strategy, bT=st.integers(1, 8), block=st.integers(16, 96))
def test_tiling_legality_consistent_with_config_validity(pattern, bT, block):
    # A valid config is a legal tiling: after both halos every block still
    # stores at least one cell per blocked dimension. Thread-count limits can
    # invalidate a legal tiling, so no assertion in the other direction.
    config = BlockingConfig(bT=bT, bS=(block,) * (pattern.ndim - 1))
    assume(config.is_valid(pattern))
    assert all(cells > 0 for cells in config.compute_region(pattern.radius))


@_SETTINGS
@given(bT=st.integers(1, 12), radius=st.integers(1, 4))
def test_register_rotation_is_permutation(bT, radius):
    alloc = FixedRegisterAllocation(bT, radius)
    period = alloc.slots_per_step
    for i in range(2 * period):
        assert sorted(alloc.rotation(i)) == list(range(period))
    assert alloc.rotation(0) == alloc.rotation(period)


@_SETTINGS
@given(pattern=stencil_strategy, bT=st.integers(2, 10))
def test_an5d_smem_footprint_never_exceeds_stencilgen(pattern, bT):
    config = BlockingConfig(bT=bT, bS=(32,) * (pattern.ndim - 1))
    ours = an5d_shared_memory_plan(pattern, config)
    theirs = stencilgen_shared_memory_plan(pattern, config)
    assert ours.words_per_block <= theirs.words_per_block


# -- functional correctness (the headline invariant) -------------------------------------


@_SETTINGS
@given(
    bT=st.integers(1, 6),
    steps=st.integers(1, 10),
    extent=st.integers(40, 72),
    seed=st.integers(0, 100),
)
def test_blocked_execution_matches_reference_2d(bT, steps, extent, seed):
    pattern = star_stencil(2, 1)
    config = BlockingConfig(bT=bT, bS=(32,))
    grid = GridSpec((extent, extent), steps)
    result = verify_blocking(pattern, grid, config, seed=seed)
    assert result.matches


@_SETTINGS
@given(bT=st.integers(1, 3), steps=st.integers(1, 5), seed=st.integers(0, 50))
def test_blocked_execution_matches_reference_3d(bT, steps, seed):
    pattern = star_stencil(3, 1)
    config = BlockingConfig(bT=bT, bS=(16, 16))
    grid = GridSpec((14, 24, 24), steps)
    result = verify_blocking(pattern, grid, config, seed=seed)
    assert result.matches


@_SETTINGS
@given(radius=st.integers(1, 3), hS=st.integers(10, 40), steps=st.integers(1, 8))
def test_blocked_execution_with_stream_division(radius, hS, steps):
    pattern = box_stencil(2, radius)
    config = BlockingConfig(bT=2, bS=(16 + 8 * radius,), hS=hS)
    grid = GridSpec((60, 60), steps)
    assume(config.is_valid(pattern))
    result = verify_blocking(pattern, grid, config)
    assert result.matches
