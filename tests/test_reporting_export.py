"""Tests for the ResultTable export additions (JSONL, records, None cells)."""

import json

import pytest

from repro.reporting import ResultTable


def sample_table():
    table = ResultTable("sample", ["pattern", "gpu", "hS", "gflops"])
    table.add_row("j2d5pt", "V100", 512, 100.5)
    table.add_row("j2d9pt", "V100", None, 90.0)
    return table


def test_to_jsonl_one_object_per_row_in_header_order():
    lines = sample_table().to_jsonl().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert list(first) == ["pattern", "gpu", "hS", "gflops"]
    assert json.loads(lines[1])["hS"] is None


def test_from_records_infers_stable_column_order():
    records = [
        {"pattern": "a", "gflops": 1.0},
        {"pattern": "b", "extra": 7},
    ]
    table = ResultTable.from_records("t", records)
    assert table.headers == ["pattern", "gflops", "extra"]
    assert table.rows[0] == ("a", 1.0, None)  # missing keys become None
    assert table.rows[1] == ("b", None, 7)


def test_from_records_explicit_headers_select_and_order():
    records = [{"b": 2, "a": 1, "c": 3}]
    table = ResultTable.from_records("t", records, headers=("c", "a"))
    assert table.headers == ["c", "a"]
    assert table.rows == [(3, 1)]


def test_from_records_round_trips_to_records():
    table = sample_table()
    rebuilt = ResultTable.from_records(table.title, table.to_records())
    assert rebuilt.headers == list(table.headers)
    assert rebuilt.rows == table.rows


def test_csv_renders_none_as_empty_cell():
    csv_text = sample_table().to_csv()
    assert "None" not in csv_text
    assert csv_text.splitlines()[2] == "j2d9pt,V100,,90.0"


def test_text_and_markdown_render_none_as_dash():
    table = sample_table()
    assert "None" not in table.to_text()
    assert "None" not in table.to_markdown()
    assert "| j2d9pt | V100 | - | 90.0 |" in table.to_markdown()


def test_save_jsonl(tmp_path):
    path = sample_table().save(tmp_path / "out.jsonl")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["pattern"] == "j2d5pt"


def test_save_rejects_unknown_suffix(tmp_path):
    with pytest.raises(ValueError):
        sample_table().save(tmp_path / "out.xlsx")


def test_save_csv_writes_exactly_the_rendering(tmp_path):
    table = sample_table()
    path = table.save(tmp_path / "out.csv")
    assert path.read_bytes() == table.to_csv().encode()
    assert path.read_bytes().endswith(b"90.0\r\n")
