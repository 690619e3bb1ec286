"""Stencil intermediate representation.

The IR is the common currency of the framework: the C frontend lowers parsed
loop nests into a :class:`~repro.ir.stencil.StencilPattern`, the AN5D core
transforms consume it, the performance model reads its operation counts, and
the code generator walks its expression tree to emit CUDA.
"""

from repro.ir.expr import (
    BinOp,
    Call,
    Const,
    Expr,
    GridRead,
    UnaryOp,
    evaluate,
    grid_reads,
)
from repro.ir.stencil import GridSpec, StencilPattern
from repro.ir.classify import (
    StencilShape,
    classify_shape,
    is_associative,
    is_diagonal_access_free,
    uses_division,
)
from repro.ir.flops import FlopCount, alu_efficiency, count_flops

__all__ = [
    "BinOp",
    "Call",
    "Const",
    "Expr",
    "FlopCount",
    "GridRead",
    "GridSpec",
    "StencilPattern",
    "StencilShape",
    "UnaryOp",
    "alu_efficiency",
    "classify_shape",
    "count_flops",
    "evaluate",
    "grid_reads",
    "is_associative",
    "is_diagonal_access_free",
    "uses_division",
]
