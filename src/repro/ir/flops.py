"""Floating-point operation accounting (Section 5 of the paper).

The performance model needs two things from each stencil:

* the number of floating-point operations per updated cell, after the
  transformations NVCC applies under ``--use_fast_math`` (division by a
  constant becomes a multiplication; multiply–add chains fuse into FMAs), and
* the ALU utilisation efficiency
  ``effALU = (2*FMA + MUL + ADD + OTHER) / (2*(FMA + MUL + ADD + OTHER))``,
  which discounts peak throughput when not every operation is an FMA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.expr import BinOp, Call, Const, Expr, UnaryOp, walk


@dataclass(frozen=True)
class FlopCount:
    """Operation mix for one cell update."""

    fma: int = 0
    mul: int = 0
    add: int = 0
    div: int = 0
    other: int = 0

    @property
    def total(self) -> int:
        """Total floating-point operations, counting an FMA as two."""
        return 2 * self.fma + self.mul + self.add + self.div + self.other

    @property
    def instruction_count(self) -> int:
        """Total issued instructions (an FMA is a single instruction)."""
        return self.fma + self.mul + self.add + self.div + self.other


def _count_raw(expr: Expr) -> tuple[int, int, int, int]:
    """Return (adds, muls, divs, others) before FMA fusion."""
    adds = muls = divs = others = 0
    for node in walk(expr):
        if isinstance(node, BinOp):
            if node.op in ("+", "-"):
                adds += 1
            elif node.op == "*":
                muls += 1
            elif node.op == "/":
                if isinstance(node.rhs, Const):
                    # --use_fast_math turns division by a constant into a
                    # multiplication by its reciprocal.
                    muls += 1
                else:
                    divs += 1
        elif isinstance(node, UnaryOp):
            # Negation folds into the consuming instruction on NVIDIA GPUs.
            continue
        elif isinstance(node, Call):
            # Every call (sqrt, exp, min, fabs, ...) is a single "other"
            # operation, matching how the paper counts gradient2d at 19 FLOP/cell.
            others += 1
    return adds, muls, divs, others


def count_flops(expr: Expr) -> FlopCount:
    """Count the operation mix of ``expr`` after FMA fusion.

    The fusion model follows the paper: in a sum-of-products every
    multiplication except one is paired with an addition into an FMA.  More
    precisely ``fma = min(adds, muls)`` with the leftovers kept as plain adds
    or muls.  This reproduces the paper's Table 3 FLOP/cell figures, e.g.
    star2d1r: 4 muls on neighbours + 1 on the centre + 4 adds = 4 FMA + 1 MUL
    = 9 FLOPs.
    """
    adds, muls, divs, others = _count_raw(expr)
    fma = min(adds, muls)
    return FlopCount(fma=fma, mul=muls - fma, add=adds - fma, div=divs, other=others)


def flops_per_cell(expr: Expr) -> int:
    """Total FLOPs per cell update (the paper's Table 3 ``FLOP/Cell``)."""
    return count_flops(expr).total


def alu_efficiency(count: FlopCount) -> float:
    """ALU utilisation efficiency ``effALU`` from Section 5.

    Peak device throughput assumes every issued instruction is an FMA (2
    FLOPs); a mix with plain adds/muls can reach at most this fraction of
    peak.
    """
    issued = count.instruction_count
    if issued == 0:
        return 1.0
    return count.total / (2.0 * issued)
