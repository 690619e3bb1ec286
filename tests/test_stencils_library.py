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


#: sha256 of ``make_initial_grid``'s bytes, recorded from the
#: ``rng.uniform(0.1, 1.0, size=shape)`` draw it replaced.
INITIAL_GRID_DIGESTS = {
    ("j2d5pt", "float", 0): "2800d06ec9c3f0e12baf9cd5b338264b6fd51c016565bf5ed5195d162eb6b514",
    ("j2d5pt", "float", 7): "1e1e71874f887a3e391629c8d1fae3d2638914a506dd9a1f64e1833964589562",
    ("j2d5pt", "double", 0): "ed18c6c8c2b08b4906a5edfa53097e342c4bac6238d040350eabfcad205a4c60",
    ("j2d5pt", "double", 7): "36198e03fabb40e536fd040fbeafc03bd9d75837efe011e47410ef2d4a96dbaa",
    ("star3d2r", "float", 0): "09debdf82e0ec5efc2edee146bf1eeedec8dd9c1607985ee75af72dc8f697dd1",
    ("star3d2r", "float", 7): "52219e6fa7cb474c58d1b7d14d9f23abae51d55c6850fbc2174b6cc038b3e5c0",
    ("star3d2r", "double", 0): "f9ae188273e357c087166070fb7f1e67fb0a7fa14590497ab4819ebac2a07872",
    ("star3d2r", "double", 7): "78934dcad60611f765b22adf69e2dfe7b9455959bdfadb9620ae774e18765ba9",
    ("fuzz-7-3", "double", 7): "40573c7f0d484bf707b64dbbd3c21ef216143fc6cec79edec6c69bd5c249a0ad",
}


@pytest.mark.parametrize("name, dtype, seed", sorted(INITIAL_GRID_DIGESTS))
def test_initial_grid_bytes_are_pinned(name, dtype, seed):
    import hashlib

    from repro.stencils.generators import fuzz_stencil

    if name.startswith("fuzz-"):
        pattern = fuzz_stencil(7, 3).build_pattern(dtype)
        grid = GridSpec((20,) * pattern.ndim, 2)
    else:
        pattern = load_pattern(name, dtype)
        grid = GridSpec((40, 36) if pattern.ndim == 2 else (10, 12, 9), 2)
    initial = make_initial_grid(pattern, grid, seed)
    assert initial.flags.c_contiguous and initial.shape == grid.padded(pattern.radius)
    assert hashlib.sha256(initial.tobytes()).hexdigest() == INITIAL_GRID_DIGESTS[name, dtype, seed]


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


TOLERANCES = {"float": (1e-4, 1e-5), "double": (1e-9, 1e-11)}


def _special_pairs(np_dtype, dtype: str):
    """Pairs at the edges of the verdict: non-finite values, signed zeros,
    subnormals, and values one and two ulps either side of the tolerance
    boundary as the arrays' own dtype computes it."""
    rtol, atol = TOLERANCES[dtype]
    inf, nan = np_dtype(np.inf), np_dtype(np.nan)
    tiny = np.finfo(np_dtype).smallest_subnormal
    pairs = [
        (nan, nan), (nan, 1), (1, nan), (inf, inf), (-inf, -inf), (inf, -inf),
        (inf, 1), (1, inf), (-inf, 1), (1, -inf), (0.0, -0.0), (-0.0, 0.0),
        (tiny, 0.0), (0.0, tiny), (tiny, -tiny), (5 * tiny, 3 * tiny),
        (np.finfo(np_dtype).max, -np.finfo(np_dtype).max),
    ]
    # Near atol, float32 and float64 arithmetic disagree on some of these.
    for y in (1.0, 0.37, -5.5, 1e-3, 123.0, 0.0, -7e-12, tiny, 2.7643697e-08, 1.7110571e-05):
        y = np_dtype(y)
        bound = np_dtype(atol) + np_dtype(rtol) * abs(y)
        for x in (y + bound, y - bound):
            below = above = np_dtype(x)
            for _ in range(3):
                pairs += [(below, y), (above, y)]
                below = np.nextafter(below, np_dtype(-np.inf))
                above = np.nextafter(above, np_dtype(np.inf))
    return [(np_dtype(x), np_dtype(y)) for x, y in pairs]


@pytest.mark.parametrize("dtype", ("float", "double"))
@pytest.mark.parametrize("np_dtype", (np.float32, np.float64))
def test_allclose_for_dtype_gives_np_allclose_verdicts(np_dtype, dtype):
    rtol, atol = TOLERANCES[dtype]
    pairs = _special_pairs(np_dtype, dtype)
    verdicts = set()
    with np.errstate(all="ignore"):
        for x, y in pairs:
            a, b = np.array([x]), np.array([y])
            expected = bool(np.allclose(a, b, rtol=rtol, atol=atol))
            verdicts.add(expected)
            assert allclose_for_dtype(a, b, dtype) is expected, (x, y)
        # Each pair planted in a grid of close values several chunks long,
        # in the first chunk, a middle one and the ragged last one.
        rng = np.random.default_rng(0)
        base = rng.uniform(-2.0, 2.0, size=(7, 13_000)).astype(np_dtype)
        for index, (x, y) in enumerate(pairs):
            a, b = base.copy(), base.copy()
            at = (0, 5, 90_999)[index % 3]
            a.flat[at], b.flat[at] = x, y
            expected = bool(np.allclose(a, b, rtol=rtol, atol=atol))
            assert allclose_for_dtype(a, b, dtype) is expected, (x, y, at)
        if np_dtype is np.float32 and dtype == "float":
            # Some verdicts are float32's, not those of the test in float64.
            assert any(
                bool(np.isclose(x, y, rtol=rtol, atol=atol))
                != (abs(float(x) - float(y)) <= atol + rtol * abs(float(y)))
                for x, y in pairs
            )
    assert verdicts == {True, False}


def test_allclose_for_dtype_leaves_mixed_inputs_to_np_allclose():
    a = np.array([0.1, 0.2, 0.3])
    assert allclose_for_dtype(a, a.astype(np.float32), "float")
    assert not allclose_for_dtype(a, a.astype(np.float32), "double")
    assert allclose_for_dtype(a, np.array([1.0]) * a, "double")
    assert allclose_for_dtype(np.array([2.0, 2.0]), np.array([2.0]), "double")
    assert allclose_for_dtype(np.arange(3), np.arange(3), "double")
    assert allclose_for_dtype(np.empty((0, 4)), np.empty((0, 4)), "double")
    # A strided view compares in logical order.
    grid = np.arange(24.0).reshape(4, 6)
    assert allclose_for_dtype(grid.T, np.ascontiguousarray(grid.T), "double")
    assert not allclose_for_dtype(grid.T, grid.reshape(6, 4), "double")


def test_max_relative_error_handles_zeros():
    a = np.zeros(4)
    assert max_relative_error(a, a) == 0.0
