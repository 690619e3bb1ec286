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
from typing import Callable, Iterator, Mapping, Sequence, Tuple

Offset = Tuple[int, ...]

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

    def __radd__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("+", _as_expr(other), self)

    def __sub__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("-", self, _as_expr(other))

    def __rsub__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("-", _as_expr(other), self)

    def __mul__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("*", self, _as_expr(other))

    def __rmul__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("*", _as_expr(other), self)

    def __truediv__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("/", self, _as_expr(other))

    def __rtruediv__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("/", _as_expr(other), self)

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

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class GridRead(Expr):
    """A read from the stencil grid at a fixed spatial offset.

    ``array`` names the grid, ``offset`` is the per-spatial-dimension offset
    from the cell being updated (ordered outermost-to-innermost, i.e. the
    streaming dimension first for 3D stencils), and ``time_offset`` is the
    offset from the *previous* time step (0 for the usual Jacobi pattern).
    """

    array: str
    offset: Offset
    time_offset: int = 0

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


def grid_reads(expr: Expr) -> list[GridRead]:
    """Return all :class:`GridRead` leaves in left-to-right order."""
    return [node for node in walk(expr) if isinstance(node, GridRead)]


def evaluate(expr: Expr, reader: Callable[[GridRead], float]) -> float:
    """Evaluate ``expr`` numerically, resolving grid reads through ``reader``.

    Used by the NumPy reference executor and by unit tests that check the
    associative partial-summation rewrite preserves values.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, GridRead):
        return float(reader(expr))
    if isinstance(expr, BinOp):
        lhs = evaluate(expr.lhs, reader)
        rhs = evaluate(expr.rhs, reader)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(expr, UnaryOp):
        return -evaluate(expr.operand, reader)
    if isinstance(expr, Call):
        args = [evaluate(a, reader) for a in expr.args]
        return float(_CALL_IMPL[expr.name](*args))
    raise TypeError(f"unknown expression node {expr!r}")
