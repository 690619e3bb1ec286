"""Tests for stencil-pattern detection (the PPCG-backend analogue)."""

import pytest

from repro.frontend.stencil_detect import StencilDetectionError, parse_stencil
from repro.ir.classify import StencilShape
from repro.stencils.generators import box_stencil_source, star_stencil_source
from repro.stencils.library import get_benchmark

J2D5PT = get_benchmark("j2d5pt").source


def test_detect_j2d5pt_offsets():
    detected = parse_stencil(J2D5PT, name="j2d5pt")
    assert detected.pattern.offsets == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert detected.pattern.radius == 1
    assert detected.ndim == 2


def test_detect_loop_metadata():
    detected = parse_stencil(J2D5PT)
    assert detected.time_loop.var == "t"
    assert detected.time_loop.upper == "I_T"
    assert [loop.var for loop in detected.spatial_loops] == ["i", "j"]
    assert detected.spatial_loops[0].inclusive


def test_dtype_inferred_from_float_suffix():
    detected = parse_stencil(J2D5PT)
    assert detected.pattern.dtype == "float"


def test_dtype_override():
    detected = parse_stencil(J2D5PT, dtype="double")
    assert detected.pattern.dtype == "double"


def test_dtype_double_without_suffix():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[(t+1)%2][i][j] = 0.25 * A[t%2][i-1][j] + 0.75 * A[t%2][i+1][j];
    """
    assert parse_stencil(source).pattern.dtype == "double"


def test_detect_3d_stencil():
    detected = parse_stencil(get_benchmark("j3d27pt").source, name="j3d27pt")
    assert detected.pattern.ndim == 3
    assert len(detected.pattern.offsets) == 27


@pytest.mark.parametrize("ndim,radius", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_synthetic_star_sources_round_trip(ndim, radius):
    pattern = parse_stencil(star_stencil_source(ndim, radius)).pattern
    assert pattern.ndim == ndim
    assert pattern.radius == radius
    assert pattern.shape is StencilShape.STAR


@pytest.mark.parametrize("ndim,radius", [(2, 1), (2, 2), (3, 1)])
def test_synthetic_box_sources_round_trip(ndim, radius):
    pattern = parse_stencil(box_stencil_source(ndim, radius)).pattern
    assert pattern.shape is StencilShape.BOX
    assert len(pattern.offsets) == (2 * radius + 1) ** ndim


def test_source_is_attached_to_pattern():
    detected = parse_stencil(J2D5PT, name="j2d5pt")
    assert detected.pattern.source is not None
    assert "A[(t+1)%2]" in detected.pattern.source.replace(" ", "")


def test_reject_two_top_level_nests():
    source = J2D5PT + "\n" + J2D5PT
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


def test_reject_missing_spatial_loop():
    source = """
    for (t = 0; t < T; t++)
      A[(t+1)%2][1] = A[t%2][1];
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


def test_reject_store_to_current_time_step():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[t%2][i][j] = A[t%2][i][j-1];
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


def test_reject_read_of_next_time_step():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[(t+1)%2][i][j] = A[(t+1)%2][i][j-1];
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


def test_reject_store_with_spatial_offset():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[(t+1)%2][i][j+1] = A[t%2][i][j];
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


def test_reject_multiple_arrays():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[(t+1)%2][i][j] = B[t%2][i][j];
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


def test_reject_non_affine_subscript():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[(t+1)%2][i][j] = A[t%2][i][2*j];
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


def test_reject_free_scalar_coefficient():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[(t+1)%2][i][j] = alpha * A[t%2][i][j];
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


@pytest.mark.parametrize("call", [
    "sqrtf(A[t%2][i][j], A[t%2][i+1][j])",  # numpy would take the 2nd as out=
    "fmax(A[t%2][i][j])",
])
def test_reject_call_with_wrong_argument_count(call):
    source = f"""
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[(t+1)%2][i][j] = {call};
    """
    with pytest.raises(StencilDetectionError, match="argument"):
        parse_stencil(source)


def test_reject_non_double_buffered_time_index():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++)
          A[t+1][i][j] = A[t][i][j];
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


def test_reject_duplicate_loop_variables():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (i = 1; i <= M; i++)
          A[(t+1)%2][i][i] = A[t%2][i][i];
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)


def test_reject_multi_statement_body():
    source = """
    for (t = 0; t < T; t++)
      for (i = 1; i <= N; i++)
        for (j = 1; j <= M; j++) {
          A[(t+1)%2][i][j] = A[t%2][i][j];
          A[(t+1)%2][i][j] = A[t%2][i][j-1];
        }
    """
    with pytest.raises(StencilDetectionError):
        parse_stencil(source)
