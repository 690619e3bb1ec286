"""Associative-stencil (partial summation) optimization (Sections 3 and 4.1).

For associative box stencils the update of a cell is a sum over
``1 + 2*rad`` source sub-planes.  Instead of keeping all of them resident,
the kernel visits sub-planes one at a time: when sub-plane ``s`` arrives it
contributes its terms to the ``1 + 2*rad`` *destination* cells whose stencils
touch it, accumulating partial sums held in registers.  Only one source
sub-plane is ever needed in shared memory, which is what collapses the
shared-memory footprint of box stencils to the star-stencil level (Table 1).

This module computes that decomposition at the expression level and verifies
it is a pure re-association of the original sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.ir.classify import group_terms_by_subplane
from repro.ir.expr import BinOp, Expr
from repro.ir.stencil import StencilPattern


@dataclass(frozen=True)
class PartialSumStep:
    """The contribution of one source sub-plane to one destination cell.

    ``source_offset`` is the streaming-dimension offset of the source
    sub-plane relative to the destination cell; ``expr`` is the sum of terms
    read from that sub-plane.  Summing ``expr`` over all steps of a
    decomposition reconstructs the original update expression.
    """

    source_offset: int
    expr: Expr
    term_count: int


def _sum(terms: List[Expr]) -> Expr:
    result = terms[0]
    for term in terms[1:]:
        result = BinOp("+", result, term)
    return result


def decompose_partial_sums(pattern: StencilPattern) -> List[PartialSumStep]:
    """Decompose an associative stencil into per-sub-plane partial sums.

    Raises ``ValueError`` for non-associative stencils (the caller is expected
    to have checked :attr:`StencilPattern.associative`).
    """
    groups = group_terms_by_subplane(pattern.expr)
    if groups is None:
        raise ValueError(f"stencil {pattern.name!r} is not associative")
    steps: List[PartialSumStep] = []
    for offset in sorted(groups):
        terms = groups[offset]
        steps.append(
            PartialSumStep(source_offset=offset, expr=_sum(terms), term_count=len(terms))
        )
    return steps
