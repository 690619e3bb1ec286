"""Tests for stencil shape and algebraic classification."""

import pytest

from repro.ir.classify import (
    StencilShape,
    classify_shape,
    group_terms_by_subplane,
    is_associative,
    sum_terms,
)
from repro.ir.expr import BinOp, Call, Const, GridRead, UnaryOp, evaluate
from repro.stencils.generators import box_offsets, box_stencil, star_offsets, star_stencil


def test_star_offsets_classify_as_star():
    assert classify_shape(star_offsets(2, 1)) is StencilShape.STAR
    assert classify_shape(star_offsets(3, 4)) is StencilShape.STAR


def test_box_offsets_classify_as_box():
    assert classify_shape(box_offsets(2, 1)) is StencilShape.BOX
    assert classify_shape(box_offsets(3, 2)) is StencilShape.BOX


def test_partial_box_is_general():
    offsets = [o for o in box_offsets(2, 1) if o != (1, 1)]
    assert classify_shape(offsets) is StencilShape.GENERAL


def test_single_point_is_star():
    assert classify_shape([(0, 0)]) is StencilShape.STAR


def test_empty_offsets_rejected():
    with pytest.raises(ValueError):
        classify_shape([])


def test_diagonal_access_free_matches_star():
    assert star_stencil(2, 3).diagonal_access_free
    assert not box_stencil(2, 1).diagonal_access_free


def test_uses_division_and_sqrt(j2d5pt, gradient2d, box2d1r):
    assert j2d5pt.has_division
    assert not box2d1r.has_division
    # gradient2d's one sqrt is its one "other" FLOP; box2d1r calls nothing.
    assert gradient2d.flops.other == 1
    assert box2d1r.flops.other == 0


def test_synthetic_stencils_are_associative():
    assert is_associative(star_stencil(2, 1).expr)
    assert is_associative(box_stencil(2, 2).expr)
    assert is_associative(box_stencil(3, 1).expr)


def test_jacobi_with_constant_division_is_associative(j2d5pt, j3d27pt):
    assert is_associative(j2d5pt.expr)
    assert is_associative(j3d27pt.expr)


def test_gradient_is_not_associative(gradient2d):
    assert not is_associative(gradient2d.expr)


def test_sum_terms_distributes_constant_division():
    a = GridRead("A", (0, 0))
    b = GridRead("A", (1, 0))
    expr = BinOp("/", BinOp("+", a, b), Const(4.0))
    terms = sum_terms(expr)
    assert terms is not None and len(terms) == 2
    total = sum(evaluate(t, lambda r: 2.0) for t in terms)
    assert total == pytest.approx(evaluate(expr, lambda r: 2.0))


def test_sum_terms_handles_subtraction_signs():
    a = GridRead("A", (0, 0))
    b = GridRead("A", (1, 0))
    expr = BinOp("-", a, b)
    terms = sum_terms(expr)
    assert terms is not None and len(terms) == 2
    total = sum(evaluate(t, lambda r: 3.0 if r.offset == (0, 0) else 1.0) for t in terms)
    assert total == pytest.approx(2.0)


def test_sum_terms_rejects_non_sum():
    a = GridRead("A", (0, 0))
    expr = Call("sqrt", (a,))
    assert is_associative(expr) is False


def test_group_terms_by_subplane_covers_all_offsets(box2d1r):
    groups = group_terms_by_subplane(box2d1r.expr)
    assert groups is not None
    assert sorted(groups) == [-1, 0, 1]
    assert sum(len(terms) for terms in groups.values()) == 9


def test_group_terms_returns_none_for_non_associative(gradient2d):
    assert group_terms_by_subplane(gradient2d.expr) is None


def test_access_set_symmetry():
    for offsets in (star_offsets(2, 2), box_offsets(3, 1)):
        assert {tuple(-c for c in offset) for offset in offsets} == set(offsets)


def test_pure_constant_expression_not_associative():
    assert not is_associative(Const(1.0))


def test_negated_terms_still_single_read():
    a = GridRead("A", (0, 0))
    b = GridRead("A", (0, 1))
    expr = BinOp("-", BinOp("*", Const(2.0), a), BinOp("*", Const(3.0), b))
    assert is_associative(expr)


def test_product_of_reads_is_not_associative():
    a = GridRead("A", (0, 0))
    b = GridRead("A", (0, 1))
    assert not is_associative(BinOp("*", a, b))


def test_negation_inside_a_term_keeps_it_single_read():
    a = GridRead("A", (0, 0))
    b = GridRead("A", (1, 0))
    scaled = BinOp("*", Const(2.0), UnaryOp("-", a))
    expr = BinOp("/", BinOp("-", scaled, b), Const(4.0))
    assert is_associative(expr)
    # Grouped terms keep sum_terms' sign and divisor wrappers.
    assert group_terms_by_subplane(expr) == {
        0: [BinOp("*", scaled, Const(0.25))],
        1: [BinOp("*", UnaryOp("-", b), Const(0.25))],
    }
    assert not is_associative(BinOp("+", a, BinOp("*", UnaryOp("-", a), b)))
