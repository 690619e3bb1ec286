"""Tests for result reporting and exhaustive tuning."""

import json

import pytest

from repro.ir.stencil import GridSpec
from repro.reporting import ResultTable
from repro.stencils.library import load_pattern
from repro.tuning.exhaustive import compare_guided_vs_exhaustive, exhaustive_search
from repro.tuning.search_space import REGISTER_LIMITS, SearchSpace


# -- reporting ----------------------------------------------------------------------


def make_table():
    table = ResultTable("demo", ["stencil", "gflops"])
    table.add_row("j2d5pt", 5288)
    table.add_row("star2d1r", 4800)
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


# -- exhaustive tuning ------------------------------------------------------------------


SMALL_SPACE = SearchSpace(
    time_blocks=(1, 2, 4, 8),
    spatial_blocks=((128,), (256,)),
    stream_blocks=(512,),
)


def test_exhaustive_search_finds_positive_optimum(j2d5pt):
    grid = GridSpec((8192, 8192), 120)
    result = exhaustive_search(j2d5pt, grid, "V100", SMALL_SPACE)
    assert result.best_gflops > 0
    assert result.evaluated == len(list(SMALL_SPACE.configurations())) * len(REGISTER_LIMITS)
    assert result.as_row()["bT"] in (1, 2, 4, 8)


def test_guided_tuning_close_to_exhaustive(j2d5pt):
    grid = GridSpec((8192, 8192), 120)
    comparison = compare_guided_vs_exhaustive(j2d5pt, grid, "V100", space=SMALL_SPACE)
    assert 0.85 <= comparison.efficiency <= 1.0
    assert comparison.evaluations_saved >= 0


def test_exhaustive_search_rejects_empty_space(v100):
    pattern = load_pattern("star2d4r", "double")
    space = SearchSpace(time_blocks=(16,), spatial_blocks=((128,),), stream_blocks=(256,))
    with pytest.raises(ValueError):
        exhaustive_search(pattern, GridSpec((4096, 4096), 100), v100, space)
