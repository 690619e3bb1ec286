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
)
from repro.ir.stencil import GridSpec, StencilPattern
from repro.ir.classify import StencilShape, classify_shape, is_associative
from repro.ir.flops import FlopCount

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
    "classify_shape",
    "evaluate",
    "is_associative",
]
