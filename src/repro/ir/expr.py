"""Expression tree for stencil right-hand sides.

The expression language is deliberately small: constants, neighbour reads of
the stencil grid, binary arithmetic, unary negation and a handful of math
calls (``sqrt``, ``fabs``, ``exp``).  This is exactly the subset AN5D's
frontend accepts (single-statement, single-store stencil updates), and keeping
the language small is what makes FLOP accounting, associativity analysis and
code generation tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Mapping, Sequence, Tuple, TypeVar

Offset = Tuple[int, ...]
T = TypeVar("T")

#: The supported math calls and how many arguments each takes.
CALL_ARITY: Mapping[str, int] = {
    "sqrt": 1, "sqrtf": 1, "fabs": 1, "fabsf": 1, "exp": 1, "expf": 1,
    "min": 2, "max": 2, "fmin": 2, "fmax": 2,
}

_CALL_IMPL: Mapping[str, Callable[..., float]] = {
    "sqrt": math.sqrt,
    "sqrtf": math.sqrt,
    "fabs": abs,
    "fabsf": abs,
    "exp": math.exp,
    "expf": math.exp,
    "min": min,
    "max": max,
    "fmin": min,
    "fmax": max,
}


class Expr:
    """Base class for expression nodes.

    Nodes are immutable value objects; equality and hashing are structural so
    that expressions can be used as dictionary keys (e.g. by the common
    sub-expression numbering in the code generator).
    """

    def children(self) -> Sequence["Expr"]:
        return ()

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("+", self, _as_expr(other))

    def __rmul__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("*", _as_expr(other), self)

    def __truediv__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("/", self, _as_expr(other))

    def __neg__(self) -> "UnaryOp":
        return UnaryOp("-", self)


def _as_expr(value: "Expr | float | int") -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot convert {value!r} to an expression")


@dataclass(frozen=True)
class Const(Expr):
    """A compile-time floating-point constant (a stencil coefficient)."""

    value: float


@dataclass(frozen=True)
class GridRead(Expr):
    """A read from the stencil grid at a fixed spatial offset.

    ``array`` names the grid, ``offset`` is the per-spatial-dimension offset
    from the cell being updated (ordered outermost-to-innermost, i.e. the
    streaming dimension first for 3D stencils).  Every read is of the
    previous time step (the frontend rejects any other).
    """

    array: str
    offset: Offset

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", tuple(int(o) for o in self.offset))

    @property
    def ndim(self) -> int:
        return len(self.offset)

    def __repr__(self) -> str:
        return f"GridRead({self.array!r}, {self.offset})"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation: ``+``, ``-``, ``*`` or ``/``."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in {"+", "-", "*", "/"}:
            raise ValueError(f"unsupported binary operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary negation."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op != "-":
            raise ValueError(f"unsupported unary operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.operand,)


@dataclass(frozen=True)
class Call(Expr):
    """A call to a supported math function."""

    name: str
    args: Tuple[Expr, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.name not in CALL_ARITY:
            raise ValueError(f"unsupported call {self.name!r}")
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != CALL_ARITY[self.name]:
            raise ValueError(
                f"{self.name} takes {CALL_ARITY[self.name]} argument(s), got {len(self.args)}"
            )

    def children(self) -> Sequence[Expr]:
        return self.args


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield every node of ``expr`` in pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def fold(expr: Expr, combine: Callable[[Expr, List[T]], T]) -> T:
    """Reduce ``expr`` bottom-up: ``combine(node, child_results)`` runs in
    post-order, children left to right.

    The walk uses an explicit stack, so sums of thousands of terms (a 3-D
    radius-5 box has 1,331) need no recursion.  It visits each node once
    per occurrence (a shared subtree is combined once per parent), and
    binary operators and leaves, nearly every node of a stencil, take a
    path that neither calls ``children()`` nor slices the operand stack.
    """
    # Pre-order with children pushed left to right visits root, right, left;
    # reversed, that is the post-order (left, right, root) the fold needs.
    order: List[Expr] = []
    stack = [expr]
    pop, push, visit = stack.pop, stack.append, order.append
    while stack:
        node = pop()
        visit(node)
        kind = type(node)
        if kind is BinOp:
            push(node.lhs)
            push(node.rhs)
        elif kind is not GridRead and kind is not Const:
            stack += node.children()
    results: List[T] = []
    pop, push = results.pop, results.append
    for node in reversed(order):
        kind = type(node)
        if kind is BinOp:
            rhs = pop()
            push(combine(node, [pop(), rhs]))
        elif kind is GridRead or kind is Const:
            push(combine(node, []))
        else:
            arity = len(node.children())
            operands = results[len(results) - arity :]
            del results[len(results) - arity :]
            push(combine(node, operands))
    return results[0]


def evaluate(expr: Expr, reader: Callable[[GridRead], float]) -> float:
    """Evaluate ``expr`` numerically, resolving grid reads through ``reader``.

    A scalar oracle: unit tests evaluate expressions with it, e.g. to check
    that the associative partial-summation rewrite preserves values.
    """

    def combine(node: Expr, args: List[float]) -> float:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, GridRead):
            return float(reader(node))
        if isinstance(node, BinOp):
            lhs, rhs = args
            if node.op == "+":
                return lhs + rhs
            if node.op == "-":
                return lhs - rhs
            if node.op == "*":
                return lhs * rhs
            return lhs / rhs
        if isinstance(node, UnaryOp):
            return -args[0]
        if isinstance(node, Call):
            return float(_CALL_IMPL[node.name](*args))
        raise TypeError(f"unknown expression node {node!r}")

    return fold(expr, combine)
