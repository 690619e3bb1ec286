"""Table 3: the benchmark suite and its FLOP/cell figures."""

from __future__ import annotations

from benchmarks.conftest import format_table, report
from repro.stencils.library import BENCHMARKS, load_pattern


def build_rows():
    rows = []
    for name, benchmark in BENCHMARKS.items():
        pattern = load_pattern(name)
        rows.append(
            (
                name,
                f"{benchmark.ndim}D",
                pattern.shape.value,
                benchmark.radius,
                benchmark.paper_flops_per_cell,
                pattern.flops.total,
                "yes" if pattern.associative else "no",
                "yes" if pattern.diagonal_access_free else "no",
            )
        )
    return rows


def test_table3_benchmarks(benchmark):
    rows = benchmark(build_rows)
    table = format_table(
        ["stencil", "dims", "shape", "rad", "FLOP/cell (paper)", "FLOP/cell (counted)", "assoc", "diag-free"],
        rows,
    )
    report("table3_benchmarks", "Table 3: benchmark stencils", table)

    assert len(rows) == 21
    for name, _, _, _, paper_flops, counted, _, _ in rows:
        # gradient2d differs by the rsqrt attribution; everything else matches.
        tolerance = 2 if name == "gradient2d" else 0
        assert abs(paper_flops - counted) <= tolerance, name
