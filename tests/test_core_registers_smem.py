"""Tests for register allocation and shared-memory planning (Table 1, Fig. 3)."""

import pytest

from repro.codegen.kernel_gen import generate_kernel
from repro.core.config import BlockingConfig
from repro.core.plan import PipelineScheduler
from repro.core.register_alloc import FixedRegisterAllocation, ShiftingRegisterAllocation
from repro.core.shared_memory import (
    an5d_shared_memory_plan,
    stencilgen_shared_memory_plan,
    synchronizations_per_subplane,
)
from repro.core.transform import an5d_transform


# -- register allocation -----------------------------------------------------


def test_fixed_allocation_single_store_per_update():
    assert FixedRegisterAllocation(4, 1).moves_per_update() == 1
    assert FixedRegisterAllocation(4, 3).moves_per_update() == 1


def test_shifting_allocation_moves_grow_with_radius():
    assert ShiftingRegisterAllocation(4, 1).moves_per_update() == 3
    assert ShiftingRegisterAllocation(4, 2).moves_per_update() == 5


def test_data_movement_ratio():
    for radius in (1, 4):
        shifting = ShiftingRegisterAllocation(1, radius).moves_per_update()
        assert shifting / FixedRegisterAllocation(1, radius).moves_per_update() == 1 + 2 * radius


def test_register_counts_scale_with_bt_and_radius():
    assert FixedRegisterAllocation(4, 1).registers_per_thread == 4 * 3
    assert FixedRegisterAllocation(10, 2).registers_per_thread == 10 * 5


def test_allocation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FixedRegisterAllocation(0, 1)
    with pytest.raises(ValueError):
        ShiftingRegisterAllocation(1, 0)


def test_all_registers_names_follow_fig5_convention(j2d5pt):
    config = BlockingConfig(bT=2, bS=(64,))
    kernel = generate_kernel(an5d_transform(j2d5pt, config))
    assert "  float reg_0_0, reg_0_1, reg_0_2, reg_1_0, reg_1_1, reg_1_2;\n" in kernel


def test_rotation_cycles_with_period():
    alloc = FixedRegisterAllocation(4, 1)
    period = alloc.slots_per_step
    assert alloc.rotation(0) == alloc.rotation(period)
    assert alloc.rotation(1) != alloc.rotation(0)
    # Every rotation is a permutation of the slots.
    for i in range(period):
        assert sorted(alloc.rotation(i)) == list(range(period))


def test_store_argument_sequence_rotates(j2d5pt):
    # Fig. 5 (bT = 4, rad = 1): consecutive STOREs pass the same final-step
    # registers in rotated order, e.g. STORE(i-4, reg_3_1, reg_3_2, reg_3_0).
    scheduler = PipelineScheduler(j2d5pt, BlockingConfig(bT=4, bS=(64,)))
    seq0, seq1 = (
        next(call.args for call in scheduler.calls_for_load(i) if call.kind == "STORE")
        for i in (9, 10)
    )
    assert set(seq0) == set(seq1) == {"reg_3_0", "reg_3_1", "reg_3_2"}
    assert seq1 == ("reg_3_1", "reg_3_2", "reg_3_0") != seq0


def test_shifting_arguments_do_not_rotate():
    alloc = ShiftingRegisterAllocation(4, 1)
    assert alloc.rotation(0) == alloc.rotation(5) == (0, 1, 2)


def test_destination_slot_follows_rotation(j2d9pt):
    # Each CALC overwrites the slot the rotation makes newest at the plane it
    # computes: the value produced at iteration i lands in rotation(i)[-1].
    alloc = FixedRegisterAllocation(4, j2d9pt.radius)
    scheduler = PipelineScheduler(j2d9pt, BlockingConfig(bT=4, bS=(64,)))
    calcs = [
        call for i in range(20) for call in scheduler.calls_for_load(i) if call.kind == "CALC"
    ]
    assert {call.time_step for call in calcs} == {1, 2, 3}
    for call in calcs:
        assert call.args[0] == f"reg_{call.time_step}_{alloc.rotation(call.plane)[-1]}"


# -- shared memory (Table 1) ----------------------------------------------------


def test_an5d_footprint_star(j2d5pt):
    config = BlockingConfig(bT=4, bS=(128,))
    plan = an5d_shared_memory_plan(j2d5pt, config)
    # 2 * nthr * nword words per block.
    assert plan.words_per_block == 2 * 128 * 1
    assert plan.stores_per_cell == 1


def test_an5d_footprint_box_associative(box2d1r):
    config = BlockingConfig(bT=4, bS=(128,))
    plan = an5d_shared_memory_plan(box2d1r, config)
    assert plan.words_per_block == 2 * 128 * 1
    assert plan.stores_per_cell == 1


def test_an5d_footprint_general_stencil(gradient2d):
    # gradient2d is star-shaped, so force the general path by disabling both
    # optimizations.
    config = BlockingConfig(bT=4, bS=(128,), star_opt=False, associative_opt=False)
    plan = an5d_shared_memory_plan(gradient2d, config)
    assert plan.words_per_block == 2 * 128 * (1 + 2 * gradient2d.radius)
    assert plan.stores_per_cell == 1 + 2 * gradient2d.radius


def test_stencilgen_footprint_scales_with_bt(j2d5pt):
    config = BlockingConfig(bT=4, bS=(128,))
    plan = stencilgen_shared_memory_plan(j2d5pt, config)
    assert plan.words_per_block == 4 * 128 * 1
    assert plan.buffers == 4


def test_footprint_ratio_is_bt_over_two(j2d5pt, box2d1r):
    for pattern in (j2d5pt, box2d1r):
        for bT in (2, 4, 8, 10):
            config = BlockingConfig(bT=bT, bS=(256,))
            theirs = stencilgen_shared_memory_plan(pattern, config).words_per_block
            ours = an5d_shared_memory_plan(pattern, config).words_per_block
            assert theirs / ours == pytest.approx(bT / 2)


def test_double_precision_doubles_words(j2d5pt):
    from repro.stencils.library import load_pattern

    double_pattern = load_pattern("j2d5pt", "double")
    config = BlockingConfig(bT=4, bS=(128,))
    single = an5d_shared_memory_plan(j2d5pt, config)
    double = an5d_shared_memory_plan(double_pattern, config)
    assert double.words_per_block == 2 * single.words_per_block
    assert double.bytes_per_block == 2 * single.bytes_per_block


def test_single_buffer_when_double_buffering_disabled(j2d5pt):
    config = BlockingConfig(bT=4, bS=(128,), double_buffer=False)
    plan = an5d_shared_memory_plan(j2d5pt, config)
    assert plan.buffers == 1


def test_synchronizations_per_subplane(j2d5pt):
    assert synchronizations_per_subplane(BlockingConfig(bT=4, bS=(128,))) == 1
    assert synchronizations_per_subplane(BlockingConfig(bT=4, bS=(128,), double_buffer=False)) == 2


def test_max_blocks_per_sm(j2d5pt, v100):
    config = BlockingConfig(bT=4, bS=(256,))
    plan = an5d_shared_memory_plan(j2d5pt, config)
    assert plan.max_blocks_per_sm(v100.shared_memory_per_sm_bytes) == (
        v100.shared_memory_per_sm_bytes // plan.bytes_per_block
    )
    assert plan.bytes_per_block <= v100.shared_memory_per_sm_bytes
