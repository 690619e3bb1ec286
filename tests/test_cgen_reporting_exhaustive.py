"""Tests for C re-emission, result reporting and exhaustive tuning."""

import json

import pytest

from repro.codegen.c_gen import generate_c, render_c_expression, round_trips
from repro.frontend.stencil_detect import parse_stencil
from repro.ir.stencil import GridSpec
from repro.reporting import ResultTable, bar_chart, series_table
from repro.stencils.generators import box_stencil, star_stencil
from repro.stencils.library import BENCHMARKS, load_pattern
from repro.tuning.exhaustive import compare_guided_vs_exhaustive, exhaustive_search
from repro.tuning.search_space import SearchSpace


# -- C re-emission -------------------------------------------------------------


def test_generate_c_produces_parseable_source(j2d5pt):
    source = generate_c(j2d5pt)
    assert "for (t = 0; t < I_T; t++)" in source
    reparsed = parse_stencil(source, name="again").pattern
    assert reparsed.offsets == j2d5pt.offsets


def test_generate_c_loop_bounds_follow_paper_notation(star3d1r):
    source = generate_c(star3d1r)
    assert "I_S3" in source and "I_S1" in source


def test_generate_c_custom_size_names(j2d5pt):
    source = generate_c(j2d5pt, size_names=("NY", "NX"))
    assert "NY" in source and "NX" in source
    with pytest.raises(ValueError):
        generate_c(j2d5pt, size_names=("N",))


@pytest.mark.parametrize(
    "name", ["j2d5pt", "j2d9pt", "j2d9pt-gol", "gradient2d", "j3d27pt", "star2d3r", "box3d2r"]
)
def test_round_trip_benchmarks(name):
    assert round_trips(load_pattern(name))


def test_round_trip_synthetic_double():
    assert round_trips(star_stencil(2, 4, dtype="double"))
    assert round_trips(box_stencil(3, 1, dtype="double"))


def test_render_c_expression_float_suffixes(j2d5pt):
    text = render_c_expression(j2d5pt.expr, j2d5pt, ("i", "j"))
    assert "5.1f" in text and "A[t%2][i-1][j]" in text


def test_render_c_expression_double_has_no_suffix():
    pattern = load_pattern("j2d5pt", "double")
    text = render_c_expression(pattern.expr, pattern, ("i", "j"))
    assert "5.1f" not in text


def test_round_trip_preserves_values(j2d5pt):
    """Re-parsed coefficients evaluate to the same update (not just offsets)."""
    from repro.ir.expr import evaluate

    reparsed = parse_stencil(generate_c(j2d5pt), name="rt", dtype="float").pattern

    def reader(read):
        return 1.0 + 0.1 * read.offset[0] + 0.01 * read.offset[1]

    assert evaluate(reparsed.expr, reader) == pytest.approx(evaluate(j2d5pt.expr, reader), rel=1e-6)


# -- reporting ----------------------------------------------------------------------


def make_table():
    table = ResultTable("demo", ["stencil", "gflops"])
    table.add_row("j2d5pt", 5288)
    table.add_dict({"stencil": "star2d1r", "gflops": 4800})
    return table


def test_result_table_text_and_markdown():
    table = make_table()
    text = table.to_text()
    assert "j2d5pt" in text and "demo" in text
    markdown = table.to_markdown()
    assert markdown.count("|") >= 8
    assert markdown.startswith("### demo")


def test_result_table_csv_and_json_round_trip():
    table = make_table()
    assert table.to_csv().splitlines()[0] == "stencil,gflops"
    payload = json.loads(table.to_json())
    assert payload["rows"][0]["stencil"] == "j2d5pt"
    assert table.to_records()[1]["gflops"] == 4800


def test_result_table_row_arity_checked():
    with pytest.raises(ValueError):
        ResultTable("x", ["a", "b"]).add_row(1)


def test_result_table_save_formats(tmp_path):
    table = make_table()
    for suffix in (".csv", ".json", ".md", ".txt"):
        path = table.save(tmp_path / f"out{suffix}")
        assert path.exists() and path.stat().st_size > 0
    with pytest.raises(ValueError):
        table.save(tmp_path / "out.xlsx")


def test_bar_chart_scaling():
    chart = bar_chart(["a", "b"], [10.0, 5.0], width=20)
    lines = chart.splitlines()
    assert lines[0].count("#") == 20
    assert lines[1].count("#") == 10
    with pytest.raises(ValueError):
        bar_chart(["a"], [1.0, 2.0])


def test_series_table_merges_x_axis():
    table = series_table("s", "bT", {"tuned": {1: 10.0, 2: 20.0}, "model": {2: 25.0, 3: 30.0}})
    assert table.headers == ["bT", "tuned", "model"]
    assert len(table.rows) == 3


# -- exhaustive tuning ------------------------------------------------------------------


SMALL_SPACE = SearchSpace(
    time_blocks=(1, 2, 4, 8),
    spatial_blocks=((128,), (256,)),
    stream_blocks=(512,),
    register_limits=(None, 64),
)


def test_exhaustive_search_finds_positive_optimum(j2d5pt):
    grid = GridSpec((8192, 8192), 120)
    result = exhaustive_search(j2d5pt, grid, "V100", SMALL_SPACE, register_limits=(None, 64))
    assert result.best_gflops > 0
    assert result.evaluated == len(list(SMALL_SPACE.configurations())) * 2
    assert result.as_row()["bT"] in (1, 2, 4, 8)


def test_guided_tuning_close_to_exhaustive(j2d5pt):
    grid = GridSpec((8192, 8192), 120)
    comparison = compare_guided_vs_exhaustive(j2d5pt, grid, "V100", top_k=3, space=SMALL_SPACE)
    assert 0.85 <= comparison.efficiency <= 1.0
    assert comparison.evaluations_saved >= 0


def test_exhaustive_search_rejects_empty_space(v100):
    pattern = load_pattern("star2d4r", "double")
    space = SearchSpace(time_blocks=(16,), spatial_blocks=((128,),), stream_blocks=(256,))
    with pytest.raises(ValueError):
        exhaustive_search(pattern, GridSpec((4096, 4096), 100), v100, space)
