"""Tests for StencilPattern and GridSpec."""

import dataclasses

import pytest

from repro.ir.classify import StencilShape
from repro.ir.expr import BinOp, Const, GridRead
from repro.ir.stencil import GridSpec, StencilPattern
from repro.stencils.generators import box_stencil, star_stencil


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
