"""Tests for the benchmark library (Table 3) and the reference executor."""

import math
import re

import numpy as np
import pytest

from repro.stencils.library import (
    BENCHMARKS,
    DEFAULT_2D_GRID,
    DEFAULT_3D_GRID,
    FIGURE6_NAMES,
    figure6_benchmarks,
    get_benchmark,
    load_pattern,
)
from repro.stencils.generators import box_stencil, star_stencil
from repro.stencils.reference import (
    ReferenceExecutor,
    allclose_for_dtype,
    make_initial_grid,
    max_relative_error,
    run_reference,
)
from repro.ir.classify import StencilShape
from repro.ir.stencil import GridSpec


# -- library ---------------------------------------------------------------------


def test_table3_has_21_benchmarks():
    assert len(BENCHMARKS) == 21


def test_benchmark_names_cover_synthetic_and_named():
    names = list(BENCHMARKS)
    for expected in ("star2d1r", "box2d4r", "star3d4r", "box3d1r", "j2d5pt", "gradient2d", "j3d27pt"):
        assert expected in names


def test_get_benchmark_unknown_name():
    with pytest.raises(KeyError):
        get_benchmark("star5d1r")


def test_figure6_benchmark_selection():
    assert len(FIGURE6_NAMES) == 7
    assert [b.name for b in figure6_benchmarks()] == list(FIGURE6_NAMES)


def test_benchmark_patterns_parse_and_match_metadata():
    for name, benchmark in BENCHMARKS.items():
        pattern = load_pattern(name)
        assert pattern.ndim == benchmark.ndim, name
        assert pattern.radius == benchmark.radius, name


def test_default_grids_match_section61():
    assert get_benchmark("j2d5pt").default_grid().interior == DEFAULT_2D_GRID == (16384, 16384)
    assert get_benchmark("star3d1r").default_grid().interior == DEFAULT_3D_GRID == (512, 512, 512)
    assert get_benchmark("j2d5pt").default_grid().time_steps == 1000


def test_load_pattern_caches_instances():
    assert load_pattern("j2d5pt") is load_pattern("j2d5pt")
    assert load_pattern("j2d5pt") is not load_pattern("j2d5pt", "double")


def test_synthetic_star_shapes():
    for radius in range(1, 5):
        assert load_pattern(f"star2d{radius}r").shape is StencilShape.STAR
        assert load_pattern(f"box3d{radius}r").shape is StencilShape.BOX if radius <= 2 else True


def test_benchmark_descriptions_are_informative():
    for benchmark in BENCHMARKS.values():
        assert len(benchmark.description) > 10


# -- generators ----------------------------------------------------------------------


def test_generator_and_source_produce_same_offsets():
    from repro.frontend.stencil_detect import parse_stencil
    from repro.stencils.generators import star_stencil_source

    direct = star_stencil(2, 3)
    parsed = parse_stencil(star_stencil_source(2, 3)).pattern
    assert direct.offsets == parsed.offsets


def test_generator_coefficients_are_normalised():
    from repro.ir.expr import BinOp, Const, walk

    pattern = box_stencil(2, 1)
    coefficients = [
        node.lhs.value
        for node in walk(pattern.expr)
        if isinstance(node, BinOp) and node.op == "*" and isinstance(node.lhs, Const)
    ]
    assert len(coefficients) == 9
    assert sum(abs(c) for c in coefficients) == pytest.approx(1.0, abs=1e-6)


# -- coefficient regression (zero/drifting coefficients) -------------------------


@pytest.mark.parametrize("radius", range(1, 9))
@pytest.mark.parametrize("ndim", (2, 3))
@pytest.mark.parametrize("family", ("star", "box"))
def test_every_family_has_positive_unit_sum_coefficients(family, ndim, radius):
    """Regression: large offsets used to drive raw weights to zero or below,
    and per-term rounding let the coefficient sum drift from 1."""
    from repro.stencils.generators import (
        box_offsets,
        normalised_terms,
        star_offsets,
    )

    offsets = (star_offsets if family == "star" else box_offsets)(ndim, radius)
    terms = normalised_terms(offsets)
    assert len(terms) == len(offsets)
    coefficients = [coefficient for _, coefficient in terms]
    assert all(coefficient > 0 for coefficient in coefficients), f"{family}{ndim}d{radius}r"
    assert abs(math.fsum(coefficients) - 1.0) < 1e-9, f"{family}{ndim}d{radius}r"


_SOURCE_COEFFICIENT = re.compile(
    r"([0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)f? \* "
)


def _family_sources():
    """One generated C source per generator family (plus fuzz samples)."""
    from repro.stencils.generators import (
        anisotropic_star_stencil_source,
        box_stencil_source,
        fdtd_stencil_source,
        fuzz_stencil,
        star_stencil_source,
        variable_star_stencil_source,
    )

    sources = {}
    for ndim in (2, 3):
        for radius in range(1, 9):
            sources[f"star{ndim}d{radius}r"] = star_stencil_source(ndim, radius)
            sources[f"box{ndim}d{radius}r"] = box_stencil_source(ndim, radius)
    sources["astar2d1x3r"] = anisotropic_star_stencil_source((1, 3))
    sources["astar3d2x1x1r"] = anisotropic_star_stencil_source((2, 1, 1))
    sources["vstar2d2r-s7"] = variable_star_stencil_source(2, 2, 7)
    sources["vstar3d2r-s11"] = variable_star_stencil_source(3, 2, 11)
    sources["fdtd2d"] = fdtd_stencil_source(2)
    sources["fdtd3d"] = fdtd_stencil_source(3, dtype="double")
    for index in range(6):
        stencil = fuzz_stencil(3, index)
        sources[stencil.name] = stencil.source
    return sources


@pytest.mark.parametrize("name,source", sorted(_family_sources().items()))
def test_generated_source_has_no_zero_coefficients(name, source):
    """Regression: every family's emitted C must be free of dead
    ``0.0f * A[...]`` terms (zero coefficients silently drop a read)."""
    values = [float(text) for text in _SOURCE_COEFFICIENT.findall(source)]
    assert values, name
    assert all(value != 0.0 for value in values), name


# -- scenario registry and dynamic names -----------------------------------------


def test_scenario_benchmarks_resolve():
    from repro.stencils.library import SCENARIOS

    names = list(SCENARIOS)
    assert "fdtd2d" in names and "fdtd3d" in names
    for name in names:
        benchmark = get_benchmark(name)
        pattern = load_pattern(name)
        assert pattern.ndim == benchmark.ndim, name
        assert pattern.radius == benchmark.radius, name


def test_dynamic_names_resolve_beyond_table3():
    for name in ("star2d6r", "box2d8r", "astar2d1x2r", "vstar2d1r-s3", "fuzz-7-0"):
        pattern = load_pattern(name)
        assert pattern.name == name
        assert pattern.ndim in (2, 3)


def test_box3d_beyond_radius4_is_rejected():
    with pytest.raises(KeyError):
        get_benchmark("box3d7r")


def test_table3_registry_is_not_polluted_by_dynamic_names():
    load_pattern("star2d6r")
    assert "star2d6r" not in BENCHMARKS
    assert len(BENCHMARKS) == 21


# -- reference executor -----------------------------------------------------------------


def test_initial_grid_shape_and_dtype(j2d5pt):
    grid = GridSpec((32, 48), 4)
    initial = make_initial_grid(j2d5pt, grid)
    assert initial.shape == (34, 50)
    assert initial.dtype == np.float32


def test_reference_step_updates_interior_only(j2d5pt):
    grid = GridSpec((16, 16), 1)
    initial = make_initial_grid(j2d5pt, grid, seed=1)
    stepped = ReferenceExecutor(j2d5pt).run(initial, 1)
    assert np.array_equal(stepped[0, :], initial[0, :])
    assert not np.allclose(stepped[1:-1, 1:-1], initial[1:-1, 1:-1])


def test_reference_matches_manual_jacobi():
    pattern = load_pattern("j2d5pt", "double")
    grid = GridSpec((8, 8), 1)
    initial = make_initial_grid(pattern, grid, seed=2).astype(np.float64)
    result = run_reference(pattern, grid, initial=initial.copy())
    # Manual evaluation of the j2d5pt formula at one interior point.
    i, j = 4, 5
    expected = (
        5.1 * initial[i - 1, j]
        + 12.1 * initial[i, j - 1]
        + 15.0 * initial[i, j]
        + 12.2 * initial[i, j + 1]
        + 5.2 * initial[i + 1, j]
    ) / 118
    assert result[i, j] == pytest.approx(expected, rel=1e-12)


def test_reference_3d_runs(star3d1r):
    grid = GridSpec((10, 12, 12), 3)
    result = run_reference(star3d1r, grid)
    assert result.shape == grid.padded(1)


def test_reference_gradient2d_is_finite(gradient2d):
    grid = GridSpec((24, 24), 5)
    result = run_reference(gradient2d, grid)
    assert np.isfinite(result).all()


def test_reference_zero_steps_is_identity(j2d5pt):
    grid = GridSpec((16, 16), 0)
    initial = make_initial_grid(j2d5pt, grid, seed=5)
    assert np.array_equal(run_reference(j2d5pt, grid, initial=initial.copy()), initial)


def test_max_relative_error_and_allclose():
    a = np.array([1.0, 2.0, 4.0])
    b = np.array([1.0, 2.0, 4.0 * (1 + 1e-3)])
    assert max_relative_error(a, b) == pytest.approx(1e-3, rel=1e-2)
    assert allclose_for_dtype(a, a, "float")
    assert not allclose_for_dtype(a, b, "double")


def test_max_relative_error_handles_zeros():
    a = np.zeros(4)
    assert max_relative_error(a, a) == 0.0
