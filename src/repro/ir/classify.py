"""Stencil shape and algebraic-structure classification.

AN5D keys three optimizations off these predicates:

* **diagonal-access-free** (star) stencils skip shared memory for the upper
  and lower sub-planes entirely (Section 4.1),
* **associative** stencils are decomposed into per-sub-plane partial
  summations so only one sub-plane needs to be resident at a time,
* everything else pays the full ``1 + 2*rad`` shared-memory stores per cell
  (Table 1).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable

from repro.ir.expr import BinOp, Call, Const, Expr, GridRead, Offset, UnaryOp, walk


class StencilShape(enum.Enum):
    """Geometric classification of the access pattern."""

    STAR = "star"
    BOX = "box"
    GENERAL = "general"


def classify_shape(offsets: Iterable[Offset]) -> StencilShape:
    """Classify the neighbour offsets as star, box or general.

    A star stencil only accesses neighbours that differ from the centre in at
    most one dimension.  A box stencil accesses the full ``(2*rad + 1)^d``
    cube.  Anything else (e.g. a star with a few diagonal points) is general.
    """
    offsets = list(offsets)
    if not offsets:
        raise ValueError("cannot classify an empty access set")
    ndim = len(offsets[0])
    radius = max(abs(c) for offset in offsets for c in offset)
    if all(sum(1 for c in offset if c != 0) <= 1 for offset in offsets):
        return StencilShape.STAR
    full_box = set(itertools.product(range(-radius, radius + 1), repeat=ndim))
    if set(offsets) == full_box:
        return StencilShape.BOX
    return StencilShape.GENERAL


def is_diagonal_access_free(offsets: Iterable[Offset]) -> bool:
    """True when no access involves more than one non-zero offset component."""
    return classify_shape(offsets) is StencilShape.STAR


def uses_division(expr: Expr) -> bool:
    """True when the update expression contains a division.

    The paper singles these stencils out (j2d5pt, j2d9pt, j2d9pt-gol,
    j3d27pt): with ``--use_fast_math`` single-precision division becomes a
    multiplication, but NVCC generates inefficient code for double-precision
    division, which the timing simulator reproduces.
    """
    return any(isinstance(node, BinOp) and node.op == "/" for node in walk(expr))


def _is_single_read_term(expr: Expr) -> bool:
    """A term that references at most one grid read (products of a read and
    constants, possibly negated)."""
    reads = [node for node in walk(expr) if isinstance(node, GridRead)]
    if len(reads) > 1:
        return False
    # Within the term, only multiplication by constants / negation is allowed
    # for the partial-summation rewrite to be a pure re-association.
    for node in walk(expr):
        if isinstance(node, BinOp) and node.op not in ("*",):
            return False
        if isinstance(node, Call):
            return False
    return True


def sum_terms(expr: Expr) -> list[Expr]:
    """Flatten a top-level sum into its terms (one term when not a sum).

    Handles an optional trailing division by a constant (the Jacobi
    ``(...)/c0`` idiom): the divisor is distributed over the terms so that the
    result is still a plain sum.
    """
    # Peel a trailing division by a constant.
    divisor = 1.0
    node = expr
    while isinstance(node, BinOp) and node.op == "/" and isinstance(node.rhs, Const):
        divisor *= node.rhs.value
        node = node.lhs

    # Left-to-right terms from an explicit stack: deep sums need no recursion.
    terms: list[Expr] = []
    stack = [(node, 1)]
    while stack:
        e, sign = stack.pop()
        while True:  # descend the left spine, deferring right operands
            if isinstance(e, BinOp) and e.op in ("+", "-"):
                stack.append((e.rhs, sign if e.op == "+" else -sign))
                e = e.lhs
            elif isinstance(e, UnaryOp) and e.op == "-":
                e, sign = e.operand, -sign
            else:
                terms.append(e if sign > 0 else UnaryOp("-", e))
                break
    if divisor != 1.0:
        terms = [BinOp("*", t, Const(1.0 / divisor)) for t in terms]
    return terms


def is_associative(expr: Expr) -> bool:
    """True when the update is a sum of single-read terms.

    Such stencils can be computed by partial summation: the contribution of
    each sub-plane is accumulated independently, so the kernel never needs
    more than one source sub-plane resident in shared memory at a time.
    """
    terms = sum_terms(expr)
    if not any(isinstance(n, GridRead) for t in terms for n in walk(t)):
        return False
    return all(_is_single_read_term(term) for term in terms)


def group_terms_by_subplane(expr: Expr) -> dict[int, list[Expr]] | None:
    """Group the terms of an associative stencil by streaming-dimension offset.

    Returns ``None`` when the stencil is not associative.  The keys are the
    streaming offsets (``-rad .. +rad``); the values are the terms whose grid
    read lives on that sub-plane.  Terms without a grid read (pure constants)
    are attached to sub-plane 0.
    """
    terms = sum_terms(expr)
    if not all(_is_single_read_term(t) for t in terms):
        return None
    groups: dict[int, list[Expr]] = {}
    for term in terms:
        reads = [n for n in walk(term) if isinstance(n, GridRead)]
        key = reads[0].offset[0] if reads else 0
        groups.setdefault(key, []).append(term)
    return groups
