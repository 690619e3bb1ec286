"""Tests for the partial-summation decomposition and the kernel plan."""

import pytest

from repro.core.associative import decompose_partial_sums
from repro.core.config import BlockingConfig
from repro.core.plan import PipelineScheduler
from repro.core.register_alloc import FixedRegisterAllocation
from repro.core.transform import an5d_transform
from repro.ir.expr import GridRead, evaluate, walk
from repro.stencils.generators import box_stencil, star_stencil


# -- associative decomposition -------------------------------------------------


def test_partial_sum_count_matches_column_height(box2d1r, j3d27pt):
    # One partial summation per source sub-plane: 1 + 2*rad for box stencils.
    assert len(decompose_partial_sums(box2d1r)) == 3
    assert len(decompose_partial_sums(j3d27pt)) == 3
    assert len(decompose_partial_sums(box_stencil(2, 2))) == 5


def test_decomposition_rejects_non_associative(gradient2d):
    with pytest.raises(ValueError):
        decompose_partial_sums(gradient2d)


def test_partial_sums_reconstruct_original_value(box2d1r, j2d5pt):
    for pattern in (box2d1r, j2d5pt):
        steps = decompose_partial_sums(pattern)

        def reader(read):
            # A deterministic but non-trivial function of the offset.
            return 1.0 + 0.3 * read.offset[0] + 0.7 * read.offset[-1]

        direct = evaluate(pattern.expr, reader)
        recomposed = sum(evaluate(step.expr, reader) for step in steps)
        assert recomposed == pytest.approx(direct, rel=1e-12)


def test_partial_sum_offsets_cover_column(box2d1r):
    steps = decompose_partial_sums(box2d1r)
    assert [s.source_offset for s in steps] == [-1, 0, 1]
    assert all(s.term_count == 3 for s in steps)


def test_partial_sum_terms_read_single_subplane(box2d1r):
    for step in decompose_partial_sums(box2d1r):
        planes = {node.offset[0] for node in walk(step.expr) if isinstance(node, GridRead)}
        assert planes == {step.source_offset}


# -- kernel plan -------------------------------------------------------------------


def test_plan_has_three_phases(j2d5pt):
    plan = an5d_transform(j2d5pt, BlockingConfig(bT=4, bS=(64,)))
    assert [phase.name for phase in plan.phases] == ["head", "inner", "tail"]
    assert plan.head is plan.phases[0]
    assert plan.tail is plan.phases[-1]


def test_macro_names_cover_all_time_steps(j2d5pt):
    plan = an5d_transform(j2d5pt, BlockingConfig(bT=4, bS=(64,)))
    calls = [call for phase in plan.phases for call in phase.calls]
    assert {call.kind for call in calls} == {"LOAD", "CALC", "STORE"}
    assert sorted({call.time_step for call in calls if call.kind == "CALC"}) == [1, 2, 3]


def test_head_length_is_rotation_aligned(j2d5pt, j2d9pt):
    for pattern, bT in ((j2d5pt, 4), (j2d5pt, 7), (j2d9pt, 3)):
        scheduler = PipelineScheduler(pattern, BlockingConfig(bT=bT, bS=(64,)))
        head = scheduler.head_length()
        assert head % scheduler.period == 0
        assert head > bT * pattern.radius


def test_head_length_matches_fig5_example(j2d5pt):
    # bT = 4, rad = 1 gives the 9-load head shown in Fig. 5.
    scheduler = PipelineScheduler(j2d5pt, BlockingConfig(bT=4, bS=(64,)))
    assert scheduler.head_length() == 9


def test_inner_phase_is_one_rotation_period(j2d5pt, j2d9pt):
    for pattern in (j2d5pt, j2d9pt):
        plan = an5d_transform(pattern, BlockingConfig(bT=3, bS=(64,)))
        loads = [c for c in plan.inner.calls if c.kind == "LOAD"]
        assert len(loads) == 2 * pattern.radius + 1
        assert plan.inner.loop_step == 2 * pattern.radius + 1


def test_inner_phase_store_plane_offset(j2d5pt):
    # Fig. 5: with bT = 4, rad = 1 the store lags the load by 4 planes.
    plan = an5d_transform(j2d5pt, BlockingConfig(bT=4, bS=(64,)))
    loads = [c for c in plan.inner.calls if c.kind == "LOAD"]
    stores = [c for c in plan.inner.calls if c.kind == "STORE"]
    assert len(stores) == len(loads)
    for load, store in zip(loads, stores):
        assert load.plane - store.plane == 4


def test_pipeline_dependency_rule(j2d9pt):
    # CALC of time step T at load j computes plane j - T*rad.
    scheduler = PipelineScheduler(j2d9pt, BlockingConfig(bT=3, bS=(64,)))
    calls = scheduler.calls_for_load(12)
    for call in calls:
        if call.kind == "CALC":
            assert call.plane == 12 - call.time_step * j2d9pt.radius
        if call.kind == "STORE":
            assert call.plane == 12 - 3 * j2d9pt.radius
    # The tail's e-th extra load: CALC1, CALC2 and the STORE, at planes
    # e - T*rad counted from the first load after the inner loop.
    tail = scheduler.build_tail().calls
    assert len(tail) == 3 * 3 * j2d9pt.radius
    for index, call in enumerate(tail):
        extra = index // 3 + 1
        assert call.time_step == index % 3 + 1 and call.plane_is_relative
        assert call.plane == extra - call.time_step * j2d9pt.radius


def test_calc_args_reference_previous_time_step_group(j2d5pt):
    scheduler = PipelineScheduler(j2d5pt, BlockingConfig(bT=4, bS=(64,)))
    calls = scheduler.calls_for_load(10)
    for call in calls:
        if call.kind == "CALC":
            dest, *sources = call.args
            assert dest.startswith(f"reg_{call.time_step}_")
            assert all(s.startswith(f"reg_{call.time_step - 1}_") for s in sources)
            assert len(sources) == 2 * j2d5pt.radius + 1


def test_store_args_use_final_group(j2d5pt):
    plan = an5d_transform(j2d5pt, BlockingConfig(bT=4, bS=(64,)))
    stores = [c for phase in plan.phases for c in phase.calls if c.kind == "STORE"]
    assert stores
    for store in stores:
        assert all(arg.startswith("reg_3_") for arg in store.args)


def test_macro_call_plane_rendering(j2d5pt):
    plan = an5d_transform(j2d5pt, BlockingConfig(bT=4, bS=(64,)))
    relative = [c for c in plan.inner.calls if c.plane_is_relative]
    assert relative
    sample = relative[-1]
    rendered = sample.render_plane("i")
    assert "i" in rendered


def test_plan_smem_fields_follow_optimizations(j2d5pt, gradient2d):
    star_plan = an5d_transform(j2d5pt, BlockingConfig(bT=2, bS=(64,)))
    assert star_plan.use_star_opt and star_plan.smem_planes_per_buffer == 1
    general_plan = an5d_transform(
        gradient2d, BlockingConfig(bT=2, bS=(64,), star_opt=False, associative_opt=False)
    )
    assert general_plan.smem_planes_per_buffer == 3


def test_transform_validates_configuration(star3d1r):
    with pytest.raises(Exception):
        an5d_transform(star3d1r, BlockingConfig(bT=2, bS=(64,)))


def _rotation_oracle(bT, radius):
    """The arguments of every CALC and STORE at load ``load``, re-derived
    from the allocation's rotation call by call."""
    alloc = FixedRegisterAllocation(bT, radius)

    def group(g, load):
        return tuple(f"reg_{g}_{slot}" for slot in alloc.rotation(load))

    def expected(step, load):
        if step == bT:
            return group(bT - 1, load)
        dest = alloc.rotation(load - step * radius)[-1]
        return (f"reg_{step}_{dest}",) + group(step - 1, load)

    return expected


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_every_macro_argument_matches_the_rotation(radius):
    pattern = star_stencil(2, radius)
    period = 2 * radius + 1
    for bT in range(1, 13):
        scheduler = PipelineScheduler(pattern, BlockingConfig(bT=bT, bS=(256,)))
        head, inner, tail = scheduler.build()
        expected = _rotation_oracle(bT, radius)
        checked = 0
        # Head and inner phase: each LOAD starts the calls of the next load.
        load = -1
        for call in head.calls + inner.calls:
            if call.kind == "LOAD":
                load += 1
                assert call.args == (f"reg_0_{load % period}",)
            else:
                assert call.args == expected(call.time_step, load), (bT, load, call)
                checked += 1
        assert load == scheduler.head_length() + period - 1
        # Tail: each STORE ends the calls of one load past the inner phase.
        load = scheduler.head_length() + period + 1
        for call in tail.calls:
            assert call.args == expected(call.time_step, load), (bT, load, call)
            checked += 1
            load += call.kind == "STORE"
        assert checked == sum(c.kind != "LOAD" for phase in (head, inner, tail) for c in phase.calls)


def test_scheduler_resolves_each_rotation_shift_once(monkeypatch):
    calls = []
    rotation = FixedRegisterAllocation.rotation

    def counted(self, iteration):
        calls.append(iteration)
        return rotation(self, iteration)

    monkeypatch.setattr(FixedRegisterAllocation, "rotation", counted)
    for radius in (1, 2, 4):
        for bT in (1, 4, 12):
            calls.clear()
            PipelineScheduler(star_stencil(2, radius), BlockingConfig(bT=bT, bS=(256,))).build()
            assert len(calls) <= 2 * radius + 1, (radius, bT, len(calls))
