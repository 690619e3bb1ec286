"""C frontend for AN5D.

The frontend accepts the restricted C subset described in Section 4.3.3 of
the paper: a time loop wrapping one loop per spatial dimension, with a single
double-buffered assignment statement inside.  It lowers this into a
:class:`repro.ir.StencilPattern` that the AN5D core transforms consume.
"""

from repro.frontend.clexer import LexerError, Token, TokenStream, lex
from repro.frontend.c_ast import (
    ArrayAccess,
    Assignment,
    BinaryExpr,
    CallExpr,
    ForLoop,
    Identifier,
    NumberLiteral,
    Program,
    UnaryExpr,
)
from repro.frontend.cparser import ParseError, Parser, parse_program
from repro.frontend.stencil_detect import StencilDetectionError, detect_stencil, parse_stencil

__all__ = [
    "ArrayAccess",
    "Assignment",
    "BinaryExpr",
    "CallExpr",
    "ForLoop",
    "Identifier",
    "LexerError",
    "NumberLiteral",
    "ParseError",
    "Parser",
    "Program",
    "StencilDetectionError",
    "Token",
    "TokenStream",
    "UnaryExpr",
    "detect_stencil",
    "lex",
    "parse_program",
    "parse_stencil",
]
