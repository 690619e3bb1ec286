"""The N.5D blocking execution model (Section 4.1).

Given a stencil pattern, a grid and a blocking configuration, this module
answers the geometric questions everything else depends on:

* how many thread blocks are launched and how they cover the grid,
* which thread positions are valid / redundant / boundary / out-of-bound,
* how much redundant work the streaming-dimension division introduces,
* how many sub-planes each block streams over.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.config import BlockingConfig, ConfigurationError
from repro.ir.stencil import GridSpec, StencilPattern


class ThreadCategory(enum.Enum):
    """Per-thread classification used by the performance model (Section 5)."""

    VALID = "valid"
    REDUNDANT = "redundant"
    BOUNDARY = "boundary"
    OUT_OF_BOUND = "out_of_bound"


#: Ordering used when combining per-dimension categories: the "worst" one wins.
_CATEGORY_SEVERITY = {
    ThreadCategory.VALID: 0,
    ThreadCategory.REDUNDANT: 1,
    ThreadCategory.BOUNDARY: 2,
    ThreadCategory.OUT_OF_BOUND: 3,
}


@dataclass(frozen=True)
class DimensionCoverage:
    """How the blocks of one blocked dimension cover the grid.

    ``category_counts`` accumulates, over every block of this dimension, how
    many thread positions fall into each category.
    """

    extent: int
    block_size: int
    compute_size: int
    num_blocks: int
    category_counts: Dict[ThreadCategory, int]


class ExecutionModel:
    """Geometry of one AN5D kernel launch."""

    def __init__(self, pattern: StencilPattern, grid: GridSpec, config: BlockingConfig) -> None:
        config.validate(pattern)
        if grid.ndim != pattern.ndim:
            raise ConfigurationError("grid dimensionality does not match the stencil")
        self.pattern = pattern
        self.grid = grid
        self.config = config
        self.radius = pattern.radius

    # -- basic quantities ---------------------------------------------------
    @property
    def blocked_extents(self) -> Tuple[int, ...]:
        """Grid extents of the blocked (non-streaming) dimensions."""
        return self.grid.interior[1:] if self.pattern.ndim > 1 else self.grid.interior

    @property
    def streaming_extent(self) -> int:
        """Grid extent of the streaming (outermost) dimension."""
        return self.grid.interior[0]

    @property
    def nthr(self) -> int:
        return self.config.nthr

    @property
    def halo_per_side(self) -> int:
        return self.config.halo_per_side(self.radius)

    @property
    def compute_sizes(self) -> Tuple[int, ...]:
        return self.config.compute_region(self.radius)

    def blocks_per_dimension(self) -> Tuple[int, ...]:
        """Number of thread blocks needed along each blocked dimension."""
        return tuple(
            math.ceil(extent / compute)
            for extent, compute in zip(self.blocked_extents, self.compute_sizes)
        )

    @property
    def ntb(self) -> int:
        """Thread blocks per streaming pass (the paper's ``ntb``)."""
        total = 1
        for count in self.blocks_per_dimension():
            total *= count
        return total

    @property
    def num_stream_blocks(self) -> int:
        """Number of divisions of the streaming dimension (``ceil(IS_N / hS_N)``)."""
        if self.config.hS is None:
            return 1
        return math.ceil(self.streaming_extent / self.config.hS)

    @property
    def total_thread_blocks(self) -> int:
        """``n'tb``: thread blocks including streaming division."""
        return self.num_stream_blocks * self.ntb

    # -- streaming ---------------------------------------------------------
    def stream_overlap_subplanes(self) -> int:
        """Redundant sub-planes between two consecutive stream blocks.

        Section 4.2.3: ``2 * sum_{T=0}^{bT-1} rad * (bT - T)``.
        """
        bT, rad = self.config.bT, self.radius
        return 2 * sum(rad * (bT - T) for T in range(bT))

    def subplanes_per_stream_block(self) -> int:
        """Sub-planes a single stream block loads (compute span + boundary
        planes + stream-block overlap when the dimension is divided)."""
        if self.config.hS is None:
            span = self.streaming_extent
        else:
            span = min(self.config.hS, self.streaming_extent)
        extra = 2 * self.radius
        if self.num_stream_blocks > 1:
            extra += self.stream_overlap_subplanes()
        return span + extra

    def streamed_subplane_loads(self) -> int:
        """Sub-planes read from global memory per pass (T = 0 only).

        Stream-block overlap at T = 0 is ``bT * rad`` planes per side of each
        internal boundary; later time steps reuse on-chip data and add no
        global loads.
        """
        base = self.streaming_extent + 2 * self.radius
        if self.num_stream_blocks <= 1:
            return base
        per_boundary = 2 * self.radius * self.config.bT
        return base + (self.num_stream_blocks - 1) * per_boundary

    def streamed_subplane_compute_steps(self) -> int:
        """Sub-plane update steps per pass, summed over the bT time steps.

        Each combined time step T (1 ≤ T ≤ bT) sweeps the stream extent plus a
        per-boundary overlap of ``2 * rad * (bT - T)`` planes when the
        streaming dimension is divided.
        """
        bT, rad = self.config.bT, self.radius
        base = bT * (self.streaming_extent + 2 * rad)
        if self.num_stream_blocks <= 1:
            return base
        per_boundary = 2 * rad * sum(bT - T for T in range(1, bT + 1))
        return base + (self.num_stream_blocks - 1) * per_boundary

    # -- per-dimension coverage -----------------------------------------------
    def _classify_position(
        self, coord: int, extent: int, compute_start: int, compute_end: int
    ) -> ThreadCategory:
        if coord < -self.radius or coord >= extent + self.radius:
            return ThreadCategory.OUT_OF_BOUND
        if coord < 0 or coord >= extent:
            return ThreadCategory.BOUNDARY
        if compute_start <= coord < compute_end:
            return ThreadCategory.VALID
        return ThreadCategory.REDUNDANT

    def dimension_coverage(self, dim: int) -> DimensionCoverage:
        """Coverage statistics of blocked dimension ``dim`` (0-based among
        the blocked dimensions)."""
        extent = self.blocked_extents[dim]
        block_size = self.config.bS[dim]
        compute = self.compute_sizes[dim]
        num_blocks = self.blocks_per_dimension()[dim]
        counts = {category: 0 for category in ThreadCategory}
        for block in range(num_blocks):
            compute_start = block * compute
            compute_end = min(compute_start + compute, extent)
            load_start = compute_start - self.halo_per_side
            for offset in range(block_size):
                coord = load_start + offset
                counts[self._classify_position(coord, extent, compute_start, compute_end)] += 1
        return DimensionCoverage(
            extent=extent,
            block_size=block_size,
            compute_size=compute,
            num_blocks=num_blocks,
            category_counts=counts,
        )

    def thread_category_counts(self) -> Dict[ThreadCategory, int]:
        """Threads per category for one sub-plane across all thread blocks.

        Per-dimension categories combine multiplicatively; the overall
        category of a thread is the most severe of its per-dimension
        categories (a thread out of bounds in any dimension is out of bounds,
        etc.).
        """
        coverages = [self.dimension_coverage(d) for d in range(len(self.blocked_extents))]
        combined: Dict[ThreadCategory, int] = {category: 0 for category in ThreadCategory}

        def recurse(dim: int, count: int, severity: int) -> None:
            if dim == len(coverages):
                category = next(
                    c for c, s in _CATEGORY_SEVERITY.items() if s == severity
                )
                combined[category] += count
                return
            for category, per_dim in coverages[dim].category_counts.items():
                if per_dim == 0:
                    continue
                recurse(dim + 1, count * per_dim, max(severity, _CATEGORY_SEVERITY[category]))

        recurse(0, 1, 0)
        return combined

    # -- redundancy metrics --------------------------------------------------
    def redundant_compute_fraction(self) -> float:
        """Fraction of computed cells that are redundant (halo) work."""
        counts = self.thread_category_counts()
        compute_threads = counts[ThreadCategory.VALID] + counts[ThreadCategory.REDUNDANT]
        return counts[ThreadCategory.REDUNDANT] / compute_threads

    def summary(self) -> Dict[str, object]:
        """A dictionary summary used by the CLI and examples."""
        counts = self.thread_category_counts()
        return {
            "nthr": self.nthr,
            "ntb": self.ntb,
            "stream_blocks": self.num_stream_blocks,
            "total_thread_blocks": self.total_thread_blocks,
            "halo_per_side": self.halo_per_side,
            "compute_sizes": self.compute_sizes,
            "redundant_fraction": self.redundant_compute_fraction(),
            "threads_valid": counts[ThreadCategory.VALID],
            "threads_redundant": counts[ThreadCategory.REDUNDANT],
            "threads_boundary": counts[ThreadCategory.BOUNDARY],
            "threads_out_of_bound": counts[ThreadCategory.OUT_OF_BOUND],
        }
