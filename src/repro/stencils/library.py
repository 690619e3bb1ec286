"""The paper's benchmark suite (Table 3).

Every benchmark carries its C source (the exact input format AN5D accepts),
the FLOP/cell figure reported in Table 3, and the default evaluation grid
(16,384² for 2D and 512³ for 3D, 1,000 iterations — Section 6.1).  Patterns
are produced by running the real frontend on the C source, so the library
doubles as an end-to-end exercise of the parser and stencil detector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.frontend.stencil_detect import parse_stencil
from repro.ir.stencil import GridSpec, StencilPattern
from repro.stencils.generators import (
    anisotropic_star_stencil_source,
    box_stencil_source,
    fdtd_stencil_source,
    fuzz_stencil,
    parse_fuzz_name,
    star_stencil_source,
    variable_star_stencil_source,
)

#: Default evaluation sizes from Section 6.1.
DEFAULT_2D_GRID = (16384, 16384)
DEFAULT_3D_GRID = (512, 512, 512)
DEFAULT_TIME_STEPS = 1000


@dataclass(frozen=True)
class BenchmarkStencil:
    """One row of Table 3."""

    name: str
    ndim: int
    radius: int
    source: str
    paper_flops_per_cell: int
    description: str

    def pattern(self, dtype: str = "float") -> StencilPattern:
        """Parse the benchmark's C source into a stencil pattern."""
        detected = parse_stencil(self.source, name=self.name, dtype=dtype)
        return detected.pattern

    def default_grid(self, time_steps: int = DEFAULT_TIME_STEPS) -> GridSpec:
        interior = DEFAULT_2D_GRID if self.ndim == 2 else DEFAULT_3D_GRID
        return GridSpec(interior, time_steps)


# ---------------------------------------------------------------------------
# Hand-written benchmarks (the j*, gol and gradient stencils)
# ---------------------------------------------------------------------------

_J2D5PT = """
for (t = 0; t < I_T; t++)
  for (i = 1; i <= I_S2; i++)
    for (j = 1; j <= I_S1; j++)
      A[(t+1)%2][i][j] = (5.1f * A[t%2][i-1][j]
          + 12.1f * A[t%2][i][j-1] + 15.0f * A[t%2][i][j]
          + 12.2f * A[t%2][i][j+1] + 5.2f * A[t%2][i+1][j]) / 118;
"""

_J2D9PT = """
for (t = 0; t < I_T; t++)
  for (i = 2; i <= I_S2; i++)
    for (j = 2; j <= I_S1; j++)
      A[(t+1)%2][i][j] = (2.1f * A[t%2][i-2][j] + 5.1f * A[t%2][i-1][j]
          + 2.2f * A[t%2][i][j-2] + 12.1f * A[t%2][i][j-1]
          + 15.0f * A[t%2][i][j]
          + 12.2f * A[t%2][i][j+1] + 2.3f * A[t%2][i][j+2]
          + 5.2f * A[t%2][i+1][j] + 2.4f * A[t%2][i+2][j]) / 118;
"""

_J2D9PT_GOL = """
for (t = 0; t < I_T; t++)
  for (i = 1; i <= I_S2; i++)
    for (j = 1; j <= I_S1; j++)
      A[(t+1)%2][i][j] = (1.1f * A[t%2][i-1][j-1] + 2.1f * A[t%2][i-1][j]
          + 3.1f * A[t%2][i-1][j+1] + 4.1f * A[t%2][i][j-1]
          + 5.1f * A[t%2][i][j] + 6.1f * A[t%2][i][j+1]
          + 7.1f * A[t%2][i+1][j-1] + 8.1f * A[t%2][i+1][j]
          + 9.1f * A[t%2][i+1][j+1]) / 118;
"""

_GRADIENT2D = """
for (t = 0; t < I_T; t++)
  for (i = 1; i <= I_S2; i++)
    for (j = 1; j <= I_S1; j++)
      A[(t+1)%2][i][j] = 0.4f * A[t%2][i][j]
          + 1.0f / sqrtf(0.0001f
            + (A[t%2][i][j] - A[t%2][i-1][j]) * (A[t%2][i][j] - A[t%2][i-1][j])
            + (A[t%2][i][j] - A[t%2][i+1][j]) * (A[t%2][i][j] - A[t%2][i+1][j])
            + (A[t%2][i][j] - A[t%2][i][j-1]) * (A[t%2][i][j] - A[t%2][i][j-1])
            + (A[t%2][i][j] - A[t%2][i][j+1]) * (A[t%2][i][j] - A[t%2][i][j+1]));
"""

_J3D27PT = """
for (t = 0; t < I_T; t++)
  for (i = 1; i <= I_S3; i++)
    for (j = 1; j <= I_S2; j++)
      for (k = 1; k <= I_S1; k++)
        A[(t+1)%2][i][j][k] = (0.5f * A[t%2][i-1][j-1][k-1] + 0.51f * A[t%2][i-1][j-1][k]
            + 0.52f * A[t%2][i-1][j-1][k+1] + 0.53f * A[t%2][i-1][j][k-1]
            + 0.54f * A[t%2][i-1][j][k] + 0.55f * A[t%2][i-1][j][k+1]
            + 0.56f * A[t%2][i-1][j+1][k-1] + 0.57f * A[t%2][i-1][j+1][k]
            + 0.58f * A[t%2][i-1][j+1][k+1] + 0.59f * A[t%2][i][j-1][k-1]
            + 0.60f * A[t%2][i][j-1][k] + 0.61f * A[t%2][i][j-1][k+1]
            + 0.62f * A[t%2][i][j][k-1] + 0.63f * A[t%2][i][j][k]
            + 0.64f * A[t%2][i][j][k+1] + 0.65f * A[t%2][i][j+1][k-1]
            + 0.66f * A[t%2][i][j+1][k] + 0.67f * A[t%2][i][j+1][k+1]
            + 0.68f * A[t%2][i+1][j-1][k-1] + 0.69f * A[t%2][i+1][j-1][k]
            + 0.70f * A[t%2][i+1][j-1][k+1] + 0.71f * A[t%2][i+1][j][k-1]
            + 0.72f * A[t%2][i+1][j][k] + 0.73f * A[t%2][i+1][j][k+1]
            + 0.74f * A[t%2][i+1][j+1][k-1] + 0.75f * A[t%2][i+1][j+1][k]
            + 0.76f * A[t%2][i+1][j+1][k+1]) / 26;
"""


def _synthetic_benchmarks() -> List[BenchmarkStencil]:
    benchmarks: List[BenchmarkStencil] = []
    for ndim in (2, 3):
        for radius in range(1, 5):
            benchmarks.append(
                BenchmarkStencil(
                    name=f"star{ndim}d{radius}r",
                    ndim=ndim,
                    radius=radius,
                    source=star_stencil_source(ndim, radius),
                    paper_flops_per_cell=(8 if ndim == 2 else 12) * radius + 1,
                    description=f"synthetic {ndim}D star stencil of order {radius}",
                )
            )
            points = (2 * radius + 1) ** ndim
            benchmarks.append(
                BenchmarkStencil(
                    name=f"box{ndim}d{radius}r",
                    ndim=ndim,
                    radius=radius,
                    source=box_stencil_source(ndim, radius),
                    paper_flops_per_cell=2 * points - 1,
                    description=f"synthetic {ndim}D box stencil of order {radius}",
                )
            )
    return benchmarks


def _named_benchmarks() -> List[BenchmarkStencil]:
    return [
        BenchmarkStencil("j2d5pt", 2, 1, _J2D5PT, 10, "2D Jacobi 5-point (Fig. 4)"),
        BenchmarkStencil("j2d9pt", 2, 2, _J2D9PT, 18, "2D Jacobi 9-point, 2nd-order star"),
        BenchmarkStencil("j2d9pt-gol", 2, 1, _J2D9PT_GOL, 18, "2D 9-point box (game-of-life shape)"),
        BenchmarkStencil("gradient2d", 2, 1, _GRADIENT2D, 19, "2D gradient with sqrt and division"),
        BenchmarkStencil("j3d27pt", 3, 1, _J3D27PT, 54, "3D Jacobi 27-point box"),
    ]


def _build_registry() -> Dict[str, BenchmarkStencil]:
    registry: Dict[str, BenchmarkStencil] = {}
    for benchmark in _synthetic_benchmarks() + _named_benchmarks():
        registry[benchmark.name] = benchmark
    return registry


BENCHMARKS: Dict[str, BenchmarkStencil] = _build_registry()


# ---------------------------------------------------------------------------
# Scenario stencils (beyond Table 3) and dynamic name resolution
# ---------------------------------------------------------------------------


def _scenario_benchmarks() -> List[BenchmarkStencil]:
    return [
        BenchmarkStencil(
            "fdtd2d", 2, 1, fdtd_stencil_source(2), 10,
            "2D FDTD-style acoustic wave update (multi-statement source)",
        ),
        BenchmarkStencil(
            "fdtd3d", 3, 1, fdtd_stencil_source(3), 15,
            "3D FDTD-style acoustic wave update (multi-statement source)",
        ),
        BenchmarkStencil(
            "astar2d1x3r", 2, 3, anisotropic_star_stencil_source((1, 3)), 17,
            "anisotropic 2D star: radius 1 along i, 3 along j",
        ),
        BenchmarkStencil(
            "astar3d2x1x1r", 3, 2, anisotropic_star_stencil_source((2, 1, 1)), 17,
            "anisotropic 3D star: radius 2 along the streaming dimension",
        ),
        BenchmarkStencil(
            "vstar2d2r-s7", 2, 2, variable_star_stencil_source(2, 2, 7), 17,
            "variable-coefficient 2D star of order 2 (seeded table, seed 7)",
        ),
    ]


#: Named scenario stencils — resolvable like Table 3 benchmarks, but kept out
#: of ``BENCHMARKS`` so the default campaign matrix (and its content
#: addresses) stay exactly the paper's table.
SCENARIOS: Dict[str, BenchmarkStencil] = {
    benchmark.name: benchmark for benchmark in _scenario_benchmarks()
}

_STARBOX_NAME = re.compile(r"(star|box)([23])d([1-8])r")
_ASTAR_NAME = re.compile(r"astar([23])d(\d+(?:x\d+)+)r")
_VSTAR_NAME = re.compile(r"vstar([23])d([1-8])r-s(\d+)")

#: Dynamic box stencils in 3D stop at radius 4, the largest Table 3 of the
#: paper tunes.  The cap is that range, not a depth limit: every frontend and
#: IR pass walks operator chains iteratively, and a radius-5 box (1,331
#: terms) parses, tunes, emits CUDA and compiles at the default recursion
#: limit.
_MAX_BOX3D_RADIUS = 4


def _starbox_flops(family: str, ndim: int, radius: int) -> int:
    if family == "star":
        return (8 if ndim == 2 else 12) * radius + 1
    return 2 * (2 * radius + 1) ** ndim - 1


@lru_cache(maxsize=None)
def _dynamic_benchmark(name: str) -> Optional[BenchmarkStencil]:
    """Resolve generator-backed names that are not in a static registry.

    Covers star/box radii beyond Table 3, anisotropic stars, seeded
    variable-coefficient stars, and ``fuzz-{seed}-{index}`` programs.  Every
    name deterministically denotes one program, so resolution is cacheable.
    """
    match = _STARBOX_NAME.fullmatch(name)
    if match:
        family, ndim, radius = match.group(1), int(match.group(2)), int(match.group(3))
        if family == "box" and ndim == 3 and radius > _MAX_BOX3D_RADIUS:
            return None
        source_for = star_stencil_source if family == "star" else box_stencil_source
        return BenchmarkStencil(
            name, ndim, radius, source_for(ndim, radius),
            _starbox_flops(family, ndim, radius),
            f"synthetic {ndim}D {family} stencil of order {radius}",
        )
    match = _ASTAR_NAME.fullmatch(name)
    if match:
        ndim = int(match.group(1))
        radii = tuple(int(part) for part in match.group(2).split("x"))
        if len(radii) != ndim or any(not 1 <= radius <= 8 for radius in radii):
            return None
        return BenchmarkStencil(
            name, ndim, max(radii), anisotropic_star_stencil_source(radii),
            2 * (1 + 2 * sum(radii)) - 1,
            f"anisotropic {ndim}D star stencil with radii {match.group(2)}",
        )
    match = _VSTAR_NAME.fullmatch(name)
    if match:
        ndim, radius, seed = int(match.group(1)), int(match.group(2)), int(match.group(3))
        return BenchmarkStencil(
            name, ndim, radius, variable_star_stencil_source(ndim, radius, seed),
            _starbox_flops("star", ndim, radius),
            f"variable-coefficient {ndim}D star of order {radius} (seed {seed})",
        )
    seed_index = parse_fuzz_name(name)
    if seed_index is not None:
        stencil = fuzz_stencil(*seed_index)
        pattern = stencil.build_pattern()
        return BenchmarkStencil(
            name, stencil.ndim, stencil.radius, stencil.source,
            2 * len(pattern.offsets) - 1, stencil.describe(),
        )
    return None


#: The seven stencils shown in Fig. 6 / Fig. 7.
FIGURE6_NAMES: Tuple[str, ...] = (
    "j2d5pt",
    "j2d9pt",
    "j2d9pt-gol",
    "gradient2d",
    "star3d1r",
    "star3d2r",
    "j3d27pt",
)


def get_benchmark(name: str) -> BenchmarkStencil:
    """Resolve a stencil by name.

    Table 3 benchmarks and named scenarios come from the registries; other
    generator-backed names (star/box up to radius 8, ``astar*``, ``vstar*``,
    ``fuzz-{seed}-{index}``) are built on demand — each such name
    deterministically denotes one program.
    """
    found = BENCHMARKS.get(name) or SCENARIOS.get(name) or _dynamic_benchmark(name)
    if found is not None:
        return found
    raise KeyError(
        f"unknown benchmark {name!r}; available: {', '.join(BENCHMARKS)}, "
        f"{', '.join(SCENARIOS)}, star/box r1-8, astar*, vstar*, fuzz-SEED-INDEX"
    )


def figure6_benchmarks() -> List[BenchmarkStencil]:
    return [BENCHMARKS[name] for name in FIGURE6_NAMES]


@lru_cache(maxsize=None)
def load_pattern(name: str, dtype: str = "float") -> StencilPattern:
    """Parse (and cache) the pattern of a named benchmark."""
    return get_benchmark(name).pattern(dtype)
