"""Unit tests for the expression IR."""

import math

import pytest

from repro.ir.expr import (
    BinOp,
    Call,
    Const,
    GridRead,
    UnaryOp,
    evaluate,
    walk,
)
from repro.ir.stencil import StencilPattern


def test_const_stores_value():
    assert Const(3.5).value == 3.5


def test_grid_read_normalises_offset_to_ints():
    read = GridRead("A", (1.0, -2.0))
    assert read.offset == (1, -2)
    assert read.ndim == 2


def test_binop_rejects_unknown_operator():
    with pytest.raises(ValueError):
        BinOp("^", Const(1.0), Const(2.0))


def test_unary_rejects_unknown_operator():
    with pytest.raises(ValueError):
        UnaryOp("!", Const(1.0))


def test_call_rejects_unknown_function():
    with pytest.raises(ValueError):
        Call("tan", (Const(1.0),))


def test_call_checks_argument_count():
    a, b = GridRead("A", (0, 0)), GridRead("A", (1, 0))
    with pytest.raises(ValueError, match="takes 1 argument"):
        Call("sqrtf", (a, b))
    with pytest.raises(ValueError, match="takes 2 argument"):
        Call("fmax", (a,))
    assert Call("fmax", (a, b)).args == (a, b)


def test_operator_sugar_builds_tree():
    a = GridRead("A", (0, 0))
    expr = 2.0 * a + 1.0
    assert isinstance(expr, BinOp)
    assert expr.op == "+"
    assert isinstance(expr.lhs, BinOp)
    assert expr.lhs.op == "*"


def test_operator_sugar_division_and_negation():
    a = GridRead("A", (0, 0))
    expr = (-a) / 4.0
    assert isinstance(expr, BinOp) and expr.op == "/"
    assert isinstance(expr.lhs, UnaryOp)


def test_walk_visits_every_node():
    a = GridRead("A", (0, 0))
    b = GridRead("A", (1, 0))
    expr = BinOp("+", BinOp("*", Const(2.0), a), b)
    kinds = [type(node).__name__ for node in walk(expr)]
    assert kinds.count("BinOp") == 2
    assert kinds.count("GridRead") == 2
    assert kinds.count("Const") == 1


def test_grid_reads_preserves_duplicates():
    a = GridRead("A", (0, 0))
    expr = BinOp("*", a, a)
    assert len(StencilPattern("square", 2, expr).reads) == 2


def test_evaluate_simple_expression():
    a = GridRead("A", (0, 0))
    b = GridRead("A", (1, 0))
    expr = BinOp("+", BinOp("*", Const(2.0), a), b)
    value = evaluate(expr, lambda read: 3.0 if read.offset == (0, 0) else 4.0)
    assert value == pytest.approx(10.0)


def test_evaluate_calls_and_negation():
    expr = UnaryOp("-", Call("sqrt", (Const(16.0),)))
    assert evaluate(expr, lambda _: 0.0) == pytest.approx(-4.0)


def test_evaluate_division():
    expr = BinOp("/", Const(7.0), Const(2.0))
    assert evaluate(expr, lambda _: 0.0) == pytest.approx(3.5)


def test_expressions_are_hashable_value_objects():
    assert GridRead("A", (0, 1)) == GridRead("A", (0, 1))
    assert hash(Const(2.0)) == hash(Const(2.0))
    assert GridRead("A", (0, 1)) != GridRead("A", (1, 0))


def test_as_expr_rejects_strings():
    a = GridRead("A", (0, 0))
    with pytest.raises(TypeError):
        _ = a + "nope"
