"""Floating-point operation accounting (Section 5 of the paper).

The performance model needs two things from each stencil:

* the number of floating-point operations per updated cell, after the
  transformations NVCC applies under ``--use_fast_math`` (division by a
  constant becomes a multiplication; multiply–add chains fuse into FMAs), and
* the ALU utilisation efficiency
  ``effALU = (2*FMA + MUL + ADD + OTHER) / (2*(FMA + MUL + ADD + OTHER))``,
  which discounts peak throughput when not every operation is an FMA.

:class:`~repro.ir.stencil.StencilPattern` counts the raw operations in the
walk that validates its tree and keeps the fused mix as ``pattern.flops``.
"""
from __future__ import annotations

from dataclasses import dataclass


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

    @property
    def alu_efficiency(self) -> float:
        """ALU utilisation efficiency ``effALU`` from Section 5.

        Peak device throughput assumes every issued instruction is an FMA
        (2 FLOPs); a mix with plain adds/muls can reach at most this
        fraction of peak.
        """
        issued = self.instruction_count
        if issued == 0:
            return 1.0
        return self.total / (2.0 * issued)

    @classmethod
    def fused(cls, adds: int, muls: int, divs: int, others: int) -> "FlopCount":
        """The mix after FMA fusion of an update's raw operation counts.

        ``adds`` counts ``+`` and ``-``; ``muls`` counts ``*`` and division
        by a constant, which ``--use_fast_math`` turns into a multiplication
        by its reciprocal; ``divs`` counts the other divisions; ``others``
        counts the calls (sqrt, exp, min, fabs, ...), one operation each, as
        the paper counts gradient2d at 19 FLOP/cell.  Negation folds into
        the consuming instruction on NVIDIA GPUs and costs nothing.

        The fusion model follows the paper: in a sum-of-products every
        multiplication except one is paired with an addition into an FMA.
        More precisely ``fma = min(adds, muls)`` with the leftovers kept as
        plain adds or muls.  This reproduces the paper's Table 3 FLOP/cell
        figures, e.g. star2d1r: 4 muls on neighbours + 1 on the centre + 4
        adds = 4 FMA + 1 MUL = 9 FLOPs.
        """
        fma = min(adds, muls)
        return cls(fma=fma, mul=muls - fma, add=adds - fma, div=divs, other=others)
