"""C sources the frontend refuses, each with the reason it gives.

The parser and the stencil detector accept one Jacobi-style loop nest; every
other shape is an error that names what is wrong, never a wrong pattern.
"""

from __future__ import annotations

import pytest

from repro.frontend.cparser import ParseError
from repro.frontend.stencil_detect import StencilDetectionError, parse_stencil
from repro.ir.expr import UnaryOp

LOOPS = """
for (t = 0; t < T; t++)
  for (i = 1; i <= N; i++)
    for (j = 1; j <= M; j++)
"""


def _nest(statement: str, loops: str = LOOPS) -> str:
    return loops + "      " + statement + "\n"


CASES = [
    (
        "for (t = 0; t < T; t++) { { A[(t+1)%2][1] = A[t%2][1]; } }",
        ParseError, "unexpected bare block",
    ),
    ("for (t = 0; t < T; ++s) A[(t+1)%2][1] = A[t%2][1];", ParseError, "loop step must increment"),
    ("for (t = 0; t < T; s++) A[(t+1)%2][1] = A[t%2][1];", ParseError, "loop step must increment"),
    ("for (t = 0; t < T; t--) A[(t+1)%2][1] = A[t%2][1];", ParseError, "unsupported loop step"),
    (_nest("A[(t+1)%2][i][j];"), ParseError, "expected assignment operator"),
    (
        _nest("A[(t+1)%2][i][j] = sqrtf(A[t%2][i][j])[0];"),
        ParseError, "only simple arrays can be subscripted",
    ),
    (
        _nest("A[(t+1)%2][i][j] += A[t%2][i][j];"),
        StencilDetectionError, "compound assignment is not a Jacobi stencil update",
    ),
    (
        _nest("A[(t+1)%2][i] = A[t%2][i][j];"),
        StencilDetectionError, "store must index the time buffer plus every spatial dim",
    ),
    (
        _nest("A[(s+1)%2][i][j] = A[t%2][i][j];"),
        StencilDetectionError, r"time index must be 't % 2' or '\(t \+ 1\) % 2'",
    ),
    (
        _nest("A[(t+1)%2][i][j] = A[t%2][j][j];"),
        StencilDetectionError, "subscript variable 'j' does not match loop variable 'i'",
    ),
    (
        _nest("A[(t+1)%2][i][j] = A[t%2][j+1][j];"),
        StencilDetectionError, "subscript variable 'j' does not match loop variable 'i'",
    ),
    (
        _nest("A[(t+1)%2][i][j] = A[t%2][i][j] % 2.0f;"),
        StencilDetectionError, "operator '%' is not allowed in a stencil expression",
    ),
    (
        _nest("A[(t+1)%2][i][j] = !A[t%2][i][j];"),
        StencilDetectionError, "unsupported unary operator '!'",
    ),
    (
        _nest("A[(t+1)%2][i][j] = cosf(A[t%2][i][j]);"),
        StencilDetectionError, "unsupported call 'cosf'",
    ),
    (
        _nest("A[(t+1)%2][i][j] = A[t%2][i];"),
        StencilDetectionError, "array access has 2 subscripts, expected 3",
    ),
    (
        _nest("A[(t+1)%2][i][j] = A[t%2][i][j];", LOOPS.replace("i <= N", "i <= f(N)")),
        StencilDetectionError, "unsupported loop bound expression",
    ),
]


@pytest.mark.parametrize("source,error,message", CASES, ids=[str(i) for i in range(len(CASES))])
def test_the_frontend_names_what_it_rejects(source, error, message):
    with pytest.raises(error, match=message):
        parse_stencil(source)


def test_loop_bounds_may_be_arithmetic_and_reads_may_be_negated():
    loops = LOOPS.replace("i = 1", "i = -(1)").replace("j <= M", "j <= M - 1")
    detected = parse_stencil(_nest("A[(t+1)%2][i][j] = -0.5f * A[t%2][i][j-1];", loops))
    assert detected.spatial_loops[0].lower == "(-1)"
    assert detected.spatial_loops[1].upper == "(M - 1)"
    assert detected.pattern.dtype == "float"  # the suffix sits under the negation
    assert isinstance(detected.pattern.expr.lhs, UnaryOp)
