"""Stencil shape and algebraic-structure classification.

AN5D keys three optimizations off these predicates:

* **diagonal-access-free** (star) stencils skip shared memory for the upper
  and lower sub-planes entirely (Section 4.1),
* **associative** stencils are decomposed into per-sub-plane partial
  summations so only one sub-plane needs to be resident at a time,
* everything else pays the full ``1 + 2*rad`` shared-memory stores per cell
  (Table 1).

The shape comes from a pattern's offsets; associativity from one pass over
the top-level terms of its update, which visits each node of each term once
and builds no node.  A pattern's FLOP mix and division come from its
validation walk instead (:class:`~repro.ir.stencil.StencilPattern`).
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable

from repro.ir.expr import BinOp, Call, Const, Expr, GridRead, Offset, UnaryOp


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


def _signed_terms(expr: Expr) -> tuple[float, list[tuple[Expr, int]]]:
    """The constant divisor peeled off ``expr`` and its top-level terms, left
    to right, each with its sign (``+1`` or ``-1``); no node is built."""
    # Peel a trailing division by a constant.
    divisor = 1.0
    node = expr
    while isinstance(node, BinOp) and node.op == "/" and isinstance(node.rhs, Const):
        divisor *= node.rhs.value
        node = node.lhs

    # Left-to-right terms from an explicit stack: deep sums need no recursion.
    terms: list[tuple[Expr, int]] = []
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
                terms.append((e, sign))
                break
    return divisor, terms


def sum_terms(expr: Expr) -> list[Expr]:
    """Flatten a top-level sum into its terms (one term when not a sum).

    Handles an optional trailing division by a constant (the Jacobi
    ``(...)/c0`` idiom): the divisor is distributed over the terms so that the
    result is still a plain sum.
    """
    divisor, signed = _signed_terms(expr)
    terms = [e if sign > 0 else UnaryOp("-", e) for e, sign in signed]
    if divisor != 1.0:
        terms = [BinOp("*", t, Const(1.0 / divisor)) for t in terms]
    return terms


def _term_reads(terms: Iterable[Expr]) -> list[GridRead | None] | None:
    """The one grid read of each term (``None`` for a term that reads
    nothing), or ``None`` when some term is not a single-read term.

    A single-read term multiplies at most one grid read by constants,
    possibly negated: for the partial-summation rewrite to be a pure
    re-association, a term may hold no other operator and no call.  Each
    term is classified in one explicit-stack pass over its nodes; the sign
    and divisor wrappers of :func:`sum_terms` do not change the outcome.
    """
    reads: list[GridRead | None] = []
    stack: list[Expr] = []
    pop, push = stack.pop, stack.append
    for term in terms:
        read = None
        push(term)
        while stack:
            node = pop()
            kind = type(node)
            if kind is BinOp:
                if node.op != "*":
                    return None
                push(node.lhs)
                push(node.rhs)
            elif kind is GridRead:
                if read is not None:
                    return None
                read = node
            elif kind is UnaryOp:
                push(node.operand)
            elif kind is Call:
                return None
        reads.append(read)
    return reads


def is_associative(expr: Expr) -> bool:
    """True when the update is a sum of single-read terms that reads the grid.

    Such stencils can be computed by partial summation: the contribution of
    each sub-plane is accumulated independently, so the kernel never needs
    more than one source sub-plane resident in shared memory at a time.
    """
    reads = _term_reads([term for term, _ in _signed_terms(expr)[1]])
    return reads is not None and any(read is not None for read in reads)


def group_terms_by_subplane(expr: Expr) -> dict[int, list[Expr]] | None:
    """Group the terms of an associative stencil by streaming-dimension offset.

    Returns ``None`` when the stencil is not associative.  The keys are the
    streaming offsets (``-rad .. +rad``); the values are the terms whose grid
    read lives on that sub-plane.  Terms without a grid read (pure constants)
    are attached to sub-plane 0.
    """
    terms = sum_terms(expr)
    reads = _term_reads(terms)
    if reads is None:
        return None
    groups: dict[int, list[Expr]] = {}
    for term, read in zip(terms, reads):
        groups.setdefault(read.offset[0] if read is not None else 0, []).append(term)
    return groups
