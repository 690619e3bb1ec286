"""Seeded round-trip property tests: generated C -> frontend -> IR bit-equal.

Every generator family emits C source the frontend must lower back to an IR
bit-equal to the directly-built pattern — same expression tree, same
dimensionality, same array, same dtype.  This is the property the fuzz
campaigns rely on: the generated program and the in-memory pattern are two
encodings of the same stencil, so any divergence downstream is a real bug,
not a frontend/generator mismatch.
"""

import dataclasses
import sys

import pytest

from repro.frontend.stencil_detect import StencilDetectionError, parse_stencil
from repro.stencils.generators import (
    anisotropic_star_stencil,
    anisotropic_star_stencil_source,
    box_stencil,
    box_stencil_source,
    fdtd_stencil,
    fdtd_stencil_source,
    fuzz_name,
    fuzz_stencil,
    parse_fuzz_name,
    star_stencil,
    star_stencil_source,
    variable_star_stencil,
    variable_star_stencil_source,
)


def _assert_bit_equal(direct, parsed):
    # Structural equality of a k-term stencil recurses through k nested
    # BinOp frames; box3d at high radius (9^3 terms) needs more stack than
    # pytest's instrumented frames leave under the default limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        assert parsed.expr == direct.expr
        assert parsed.ndim == direct.ndim
        assert parsed.array == direct.array
        assert parsed.dtype == direct.dtype
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("dtype", ("float", "double"))
@pytest.mark.parametrize("ndim,radius", [(2, 1), (2, 4), (2, 8), (3, 3), (3, 8)])
def test_star_round_trip(ndim, radius, dtype):
    direct = dataclasses.replace(star_stencil(ndim, radius), dtype=dtype)
    parsed = parse_stencil(star_stencil_source(ndim, radius), dtype=dtype).pattern
    _assert_bit_equal(direct, parsed)


@pytest.mark.parametrize("dtype", ("float", "double"))
@pytest.mark.parametrize("ndim,radius", [(2, 1), (2, 6), (3, 2), (3, 4)])
def test_box_round_trip(ndim, radius, dtype):
    direct = dataclasses.replace(box_stencil(ndim, radius), dtype=dtype)
    parsed = parse_stencil(box_stencil_source(ndim, radius), dtype=dtype).pattern
    _assert_bit_equal(direct, parsed)


@pytest.mark.parametrize("radii", [(1, 3), (3, 1), (2, 1, 1), (1, 2, 3)])
def test_anisotropic_star_round_trip(radii):
    direct = anisotropic_star_stencil(radii)
    parsed = parse_stencil(anisotropic_star_stencil_source(radii)).pattern
    _assert_bit_equal(direct, parsed)


@pytest.mark.parametrize("ndim,radius,seed", [(2, 1, 3), (2, 3, 99), (3, 2, 7)])
def test_variable_star_round_trip(ndim, radius, seed):
    direct = variable_star_stencil(ndim, radius, seed)
    parsed = parse_stencil(variable_star_stencil_source(ndim, radius, seed)).pattern
    _assert_bit_equal(direct, parsed)


@pytest.mark.parametrize("dtype", ("float", "double"))
@pytest.mark.parametrize("ndim", (2, 3))
def test_fdtd_round_trip(ndim, dtype):
    direct = fdtd_stencil(ndim, dtype)
    parsed = parse_stencil(fdtd_stencil_source(ndim, dtype)).pattern
    _assert_bit_equal(direct, parsed)
    # dtype is inferred from the source alone (f suffixes / declared floats),
    # with no override passed to the frontend.
    assert parsed.dtype == dtype


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("index", range(8))
def test_fuzz_round_trip(seed, index):
    stencil = fuzz_stencil(seed, index)
    direct = stencil.build_pattern()
    parsed = parse_stencil(stencil.source, name=stencil.name).pattern
    _assert_bit_equal(direct, parsed)


def test_fuzz_stencils_are_deterministic():
    assert fuzz_stencil(7, 3) == fuzz_stencil(7, 3)
    assert fuzz_stencil(7, 3) != fuzz_stencil(8, 3)
    assert parse_fuzz_name(fuzz_name(7, 3)) == (7, 3)
    assert parse_fuzz_name("star2d1r") is None


# -- multi-statement frontend ----------------------------------------------------

_FDTD_2D_TEMPLATE = """\
for (t = 0; t < I_T; t++)
  for (i = 1; i <= I_S2; i++)
    for (j = 1; j <= I_S1; j++)
    {{
{body}
    }}
"""


def _fdtd_2d(body: str) -> str:
    return _FDTD_2D_TEMPLATE.format(body=body)


def test_temporaries_may_reference_earlier_temporaries():
    source = _fdtd_2d(
        "      float lap = A[t%2][i-1][j] - 2.0f * A[t%2][i][j] + A[t%2][i+1][j];\n"
        "      float scaled = 0.25f * lap;\n"
        "      A[(t+1)%2][i][j] = A[t%2][i][j] + scaled;"
    )
    pattern = parse_stencil(source).pattern
    assert pattern.ndim == 2
    assert pattern.dtype == "float"
    assert len(pattern.offsets) == 3


def test_uninitialised_temporary_is_rejected():
    source = _fdtd_2d(
        "      float lap;\n"
        "      A[(t+1)%2][i][j] = A[t%2][i][j];"
    )
    with pytest.raises(StencilDetectionError, match="must be initialised"):
        parse_stencil(source)


def test_duplicate_temporary_is_rejected():
    source = _fdtd_2d(
        "      float lap = 2.0f * A[t%2][i][j];\n"
        "      float lap = 3.0f * A[t%2][i][j];\n"
        "      A[(t+1)%2][i][j] = lap;"
    )
    with pytest.raises(StencilDetectionError, match="declared twice"):
        parse_stencil(source)


def test_temporary_shadowing_loop_variable_is_rejected():
    source = _fdtd_2d(
        "      float i = 2.0f * A[t%2][i][j];\n"
        "      A[(t+1)%2][i][j] = A[t%2][i][j];"
    )
    with pytest.raises(StencilDetectionError, match="shadows a loop variable"):
        parse_stencil(source)


def test_undeclared_identifier_is_still_rejected():
    source = _fdtd_2d(
        "      A[(t+1)%2][i][j] = alpha * A[t%2][i][j];"
    )
    with pytest.raises(StencilDetectionError, match="free scalar variable"):
        parse_stencil(source)


def test_statement_after_assignment_is_rejected():
    source = _fdtd_2d(
        "      A[(t+1)%2][i][j] = A[t%2][i][j];\n"
        "      float lap = 2.0f * A[t%2][i][j];"
    )
    with pytest.raises(StencilDetectionError, match="single assignment"):
        parse_stencil(source)


def test_float_temporary_forces_float_dtype():
    source = _fdtd_2d(
        "      float lap = A[t%2][i-1][j] - 2.0 * A[t%2][i][j] + A[t%2][i+1][j];\n"
        "      A[(t+1)%2][i][j] = A[t%2][i][j] + 0.25 * lap;"
    )
    assert parse_stencil(source).pattern.dtype == "float"


def test_double_temporaries_keep_double_dtype():
    source = _fdtd_2d(
        "      double lap = A[t%2][i-1][j] - 2.0 * A[t%2][i][j] + A[t%2][i+1][j];\n"
        "      A[(t+1)%2][i][j] = A[t%2][i][j] + 0.25 * lap;"
    )
    assert parse_stencil(source).pattern.dtype == "double"
