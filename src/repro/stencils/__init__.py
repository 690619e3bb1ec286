"""Benchmark stencils (Table 3) and reference execution.

* :mod:`repro.stencils.generators` — programmatic construction of synthetic
  star/box stencils of arbitrary order plus C source generation,
* :mod:`repro.stencils.library` — the paper's 21 named benchmarks,
* :mod:`repro.stencils.reference` — straightforward NumPy execution used as
  the correctness oracle.
"""

from repro.stencils.generators import (
    box_stencil,
    box_stencil_source,
    star_stencil,
    star_stencil_source,
)
from repro.stencils.library import (
    BENCHMARKS,
    BenchmarkStencil,
    figure6_benchmarks,
    get_benchmark,
    load_pattern,
)
from repro.stencils.reference import ReferenceExecutor, make_initial_grid, run_reference

__all__ = [
    "BENCHMARKS",
    "BenchmarkStencil",
    "ReferenceExecutor",
    "box_stencil",
    "box_stencil_source",
    "figure6_benchmarks",
    "get_benchmark",
    "load_pattern",
    "make_initial_grid",
    "run_reference",
    "star_stencil",
    "star_stencil_source",
]
