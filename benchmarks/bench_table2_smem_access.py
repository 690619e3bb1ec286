"""Table 2: shared-memory accesses per thread (expected vs practical).

The "expected" column is what the emitted kernels read: tier-1 counts the
distinct ``__an5d_sm_load`` addresses of every CALC/STORE body of the tuned
Table-5 kernels against it.  The "practical" column is a modelled
assumption, not a measurement: the paper attributes it to NVCC caching
shared-memory values in registers, which needs NVCC and a GPU to observe.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import format_table, report
from repro.model.traffic import shared_memory_access_per_thread
from repro.stencils.generators import box_stencil, star_stencil


def build_rows():
    rows = []
    for ndim in (2, 3):
        for shape, builder in (("star", star_stencil), ("box", box_stencil)):
            for radius in (1, 2, 3, 4):
                access = shared_memory_access_per_thread(builder(ndim, radius))
                rows.append(
                    (f"{ndim}D", shape, radius, access.reads_expected, access.reads_practical, access.writes)
                )
    return rows


def test_table2_shared_memory_access(benchmark):
    rows = benchmark(build_rows)
    table = format_table(
        ["dims", "shape", "rad", "read (expected)", "read (practical, modelled)", "write"], rows
    )
    report("table2_smem_access", "Table 2: shared memory access per thread", table)

    lookup = {(dims, shape, rad): (expected, practical, writes) for dims, shape, rad, expected, practical, writes in rows}
    for rad in (1, 2, 3, 4):
        assert lookup[("2D", "star", rad)] == (2 * rad, 2 * rad, 1)
        assert lookup[("3D", "star", rad)] == (4 * rad, 4 * rad, 1)
        column = 2 * rad + 1
        assert lookup[("2D", "box", rad)] == (column**2 - column, column - 1, 1)
        assert lookup[("3D", "box", rad)] == (column**3 - column, column**2 - 1, 1)


def test_table2_practical_reads_never_exceed_expected():
    for dims, shape, rad, expected, practical, _ in build_rows():
        assert practical <= expected, (dims, shape, rad)
