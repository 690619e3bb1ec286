"""Tests for StencilPattern and GridSpec."""

import dataclasses

import pytest

from repro.ir.classify import StencilShape
from repro.ir.expr import BinOp, Const, GridRead
from repro.ir.stencil import GridSpec, StencilPattern
from repro.stencils.generators import box_stencil, fuzz_stencil, star_stencil
from repro.stencils.library import BENCHMARKS, load_pattern


def test_grid_spec_basic_properties():
    grid = GridSpec((128, 64), 10)
    assert grid.ndim == 2
    assert grid.cells == 128 * 64
    assert grid.padded(2) == (132, 68)


def test_grid_spec_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        GridSpec((0, 4))
    with pytest.raises(ValueError):
        GridSpec((4, -1))


def test_grid_spec_rejects_negative_time():
    with pytest.raises(ValueError):
        GridSpec((4, 4), -1)


def test_pattern_radius_from_offsets(j2d5pt, j2d9pt):
    assert j2d5pt.radius == 1
    assert j2d9pt.radius == 2


def test_pattern_offsets_are_sorted_and_unique(box2d1r):
    offsets = box2d1r.offsets
    assert offsets == sorted(set(offsets))
    assert len(offsets) == 9


def test_pattern_shape_classification(j2d5pt, box2d1r, gradient2d):
    assert j2d5pt.shape is StencilShape.STAR
    assert box2d1r.shape is StencilShape.BOX
    assert gradient2d.shape is StencilShape.STAR


def test_pattern_dtype_word_sizes():
    pattern = star_stencil(2, 1)
    assert pattern.word_bytes == 4 and pattern.nword == 1
    pattern = dataclasses.replace(pattern, dtype="double")
    assert pattern.word_bytes == 8 and pattern.nword == 2


def test_pattern_rejects_bad_dtype():
    with pytest.raises(ValueError):
        StencilPattern("x", 2, GridRead("A", (0, 0)), dtype="half")


def test_pattern_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        StencilPattern("x", 3, GridRead("A", (0, 0)))


def test_pattern_rejects_no_reads():
    with pytest.raises(ValueError):
        StencilPattern("x", 2, Const(1.0))


def test_describe_mentions_key_facts(j2d5pt):
    text = j2d5pt.describe()
    assert "j2d5pt" in text and "2D" in text and "star" in text and "radius 1" in text


def test_diagonal_access_free_flag(j2d5pt, box2d1r):
    assert j2d5pt.diagonal_access_free
    assert not box2d1r.diagonal_access_free


def test_associative_flag(box2d1r, gradient2d):
    assert box2d1r.associative
    assert not gradient2d.associative


def test_synthetic_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        star_stencil(4, 1)
    with pytest.raises(ValueError):
        box_stencil(2, 0)


#: ``(fma, mul, add, div, other, has_division, associative, shape,
#: diagonal_access_free)`` of every Table-3 stencil in both dtypes and of
#: ``fuzz_stencil(7, 0..19)``: the model, tuner and code generator choose
#: from these, so a rework of the walk that derives them must move none.
PATTERN_FACTS = {
    ('star2d1r', 'float'): (4, 1, 0, 0, 0, False, True, 'STAR', True),
    ('star2d1r', 'double'): (4, 1, 0, 0, 0, False, True, 'STAR', True),
    ('box2d1r', 'float'): (8, 1, 0, 0, 0, False, True, 'BOX', False),
    ('box2d1r', 'double'): (8, 1, 0, 0, 0, False, True, 'BOX', False),
    ('star2d2r', 'float'): (8, 1, 0, 0, 0, False, True, 'STAR', True),
    ('star2d2r', 'double'): (8, 1, 0, 0, 0, False, True, 'STAR', True),
    ('box2d2r', 'float'): (24, 1, 0, 0, 0, False, True, 'BOX', False),
    ('box2d2r', 'double'): (24, 1, 0, 0, 0, False, True, 'BOX', False),
    ('star2d3r', 'float'): (12, 1, 0, 0, 0, False, True, 'STAR', True),
    ('star2d3r', 'double'): (12, 1, 0, 0, 0, False, True, 'STAR', True),
    ('box2d3r', 'float'): (48, 1, 0, 0, 0, False, True, 'BOX', False),
    ('box2d3r', 'double'): (48, 1, 0, 0, 0, False, True, 'BOX', False),
    ('star2d4r', 'float'): (16, 1, 0, 0, 0, False, True, 'STAR', True),
    ('star2d4r', 'double'): (16, 1, 0, 0, 0, False, True, 'STAR', True),
    ('box2d4r', 'float'): (80, 1, 0, 0, 0, False, True, 'BOX', False),
    ('box2d4r', 'double'): (80, 1, 0, 0, 0, False, True, 'BOX', False),
    ('star3d1r', 'float'): (6, 1, 0, 0, 0, False, True, 'STAR', True),
    ('star3d1r', 'double'): (6, 1, 0, 0, 0, False, True, 'STAR', True),
    ('box3d1r', 'float'): (26, 1, 0, 0, 0, False, True, 'BOX', False),
    ('box3d1r', 'double'): (26, 1, 0, 0, 0, False, True, 'BOX', False),
    ('star3d2r', 'float'): (12, 1, 0, 0, 0, False, True, 'STAR', True),
    ('star3d2r', 'double'): (12, 1, 0, 0, 0, False, True, 'STAR', True),
    ('box3d2r', 'float'): (124, 1, 0, 0, 0, False, True, 'BOX', False),
    ('box3d2r', 'double'): (124, 1, 0, 0, 0, False, True, 'BOX', False),
    ('star3d3r', 'float'): (18, 1, 0, 0, 0, False, True, 'STAR', True),
    ('star3d3r', 'double'): (18, 1, 0, 0, 0, False, True, 'STAR', True),
    ('box3d3r', 'float'): (342, 1, 0, 0, 0, False, True, 'BOX', False),
    ('box3d3r', 'double'): (342, 1, 0, 0, 0, False, True, 'BOX', False),
    ('star3d4r', 'float'): (24, 1, 0, 0, 0, False, True, 'STAR', True),
    ('star3d4r', 'double'): (24, 1, 0, 0, 0, False, True, 'STAR', True),
    ('box3d4r', 'float'): (728, 1, 0, 0, 0, False, True, 'BOX', False),
    ('box3d4r', 'double'): (728, 1, 0, 0, 0, False, True, 'BOX', False),
    ('j2d5pt', 'float'): (4, 2, 0, 0, 0, True, True, 'STAR', True),
    ('j2d5pt', 'double'): (4, 2, 0, 0, 0, True, True, 'STAR', True),
    ('j2d9pt', 'float'): (8, 2, 0, 0, 0, True, True, 'STAR', True),
    ('j2d9pt', 'double'): (8, 2, 0, 0, 0, True, True, 'STAR', True),
    ('j2d9pt-gol', 'float'): (8, 2, 0, 0, 0, True, True, 'BOX', False),
    ('j2d9pt-gol', 'double'): (8, 2, 0, 0, 0, True, True, 'BOX', False),
    ('gradient2d', 'float'): (5, 0, 8, 1, 1, True, False, 'STAR', True),
    ('gradient2d', 'double'): (5, 0, 8, 1, 1, True, False, 'STAR', True),
    ('j3d27pt', 'float'): (26, 2, 0, 0, 0, True, True, 'BOX', False),
    ('j3d27pt', 'double'): (26, 2, 0, 0, 0, True, True, 'BOX', False),
    ('fuzz-7-0', 'float'): (124, 1, 0, 0, 0, False, True, 'BOX', False),
    ('fuzz-7-1', 'double'): (12, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-2', 'float'): (4, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-3', 'double'): (18, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-4', 'double'): (10, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-5', 'float'): (26, 1, 0, 0, 0, False, True, 'BOX', False),
    ('fuzz-7-6', 'float'): (26, 1, 0, 0, 0, False, True, 'BOX', False),
    ('fuzz-7-7', 'float'): (124, 1, 0, 0, 0, False, True, 'BOX', False),
    ('fuzz-7-8', 'float'): (12, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-9', 'double'): (26, 1, 0, 0, 0, False, True, 'BOX', False),
    ('fuzz-7-10', 'float'): (16, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-11', 'double'): (12, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-12', 'double'): (12, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-13', 'double'): (6, 0, 3, 0, 0, False, False, 'STAR', True),
    ('fuzz-7-14', 'float'): (12, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-15', 'float'): (18, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-16', 'float'): (16, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-17', 'float'): (8, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-18', 'double'): (8, 1, 0, 0, 0, False, True, 'STAR', True),
    ('fuzz-7-19', 'double'): (6, 1, 0, 0, 0, False, True, 'STAR', True),
}


def _facts(pattern):
    flops = pattern.flops
    return (
        flops.fma, flops.mul, flops.add, flops.div, flops.other,
        pattern.has_division, pattern.associative, pattern.shape.name,
        pattern.diagonal_access_free,
    )


def test_every_derived_fact_of_a_pattern_is_pinned():
    facts = {
        (name, dtype): _facts(load_pattern(name, dtype))
        for name in BENCHMARKS
        for dtype in ("float", "double")
    }
    for index in range(20):
        pattern = fuzz_stencil(7, index).build_pattern()
        facts[pattern.name, pattern.dtype] = _facts(pattern)
    assert facts == PATTERN_FACTS
