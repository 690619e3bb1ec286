"""Abstract syntax tree for the C stencil subset.

The tree mirrors the handful of constructs AN5D's restricted input language
allows: nested ``for`` loops, a single assignment statement, and expressions
built from array accesses, literals, identifiers, arithmetic and calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


class Node:
    """Base class for all AST nodes."""


class CExpr(Node):
    """Base class for expression nodes."""


@dataclass(frozen=True)
class NumberLiteral(CExpr):
    """An integer or floating-point literal."""

    value: float
    is_float: bool
    text: str

    @staticmethod
    def from_text(text: str, is_float: bool) -> "NumberLiteral":
        cleaned = text.rstrip("fFlLuU")
        return NumberLiteral(float(cleaned), is_float, text)


@dataclass(frozen=True)
class Identifier(CExpr):
    """A scalar variable reference (loop index or symbolic size)."""

    name: str


@dataclass(frozen=True)
class BinaryExpr(CExpr):
    """A binary operation, including ``%`` and comparisons."""

    op: str
    lhs: CExpr
    rhs: CExpr


@dataclass(frozen=True)
class UnaryExpr(CExpr):
    """Unary minus / plus / logical not."""

    op: str
    operand: CExpr


@dataclass(frozen=True)
class CallExpr(CExpr):
    """A function call such as ``sqrtf(x)``."""

    name: str
    args: Tuple[CExpr, ...]


@dataclass(frozen=True)
class ArrayAccess(CExpr):
    """A multi-dimensional array subscript ``A[i0][i1]...``."""

    array: str
    indices: Tuple[CExpr, ...]


class Statement(Node):
    """Base class for statement nodes."""


@dataclass(frozen=True)
class Assignment(Statement):
    """``target = value;`` — the single store AN5D allows per stencil."""

    target: ArrayAccess
    value: CExpr
    op: str = "="


@dataclass(frozen=True)
class ForLoop(Statement):
    """A canonical ``for (var = lower; var (<|<=) upper; var++)`` loop."""

    var: str
    lower: CExpr
    upper: CExpr
    inclusive: bool
    body: Tuple[Statement, ...]

    @property
    def single_statement_body(self) -> Statement | None:
        return self.body[0] if len(self.body) == 1 else None


@dataclass(frozen=True)
class Declaration(Statement):
    """A scalar declaration such as ``float tmp = ...;`` (tolerated, ignored)."""

    dtype: str
    name: str
    value: CExpr | None = None


@dataclass(frozen=True)
class Program(Node):
    """A sequence of top-level statements (normally one loop nest)."""

    statements: Tuple[Statement, ...] = field(default_factory=tuple)

    @property
    def loops(self) -> list[ForLoop]:
        return [s for s in self.statements if isinstance(s, ForLoop)]


def innermost_body(loop: ForLoop) -> Tuple[Statement, ...]:
    """Statements in the innermost loop of a perfect nest."""
    node = loop
    while True:
        inner = node.single_statement_body
        if isinstance(inner, ForLoop):
            node = inner
        else:
            return node.body


def nest_loops(loop: ForLoop) -> list[ForLoop]:
    """The chain of perfectly nested loops, outermost first."""
    chain = [loop]
    node = loop
    while True:
        inner = node.single_statement_body
        if isinstance(inner, ForLoop):
            chain.append(inner)
            node = inner
        else:
            return chain
