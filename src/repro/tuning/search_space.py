"""The tuning search space (Section 6.3).

For 2D stencils the paper explores ``bT in [1, 16]``, ``bS in {128, 256,
512}`` and ``hS in {256, 512, 1024}`` (144 configurations); for 3D stencils
``bT in [1, 8]``, ``bS in {16x16, 32x16, 32x32, 64x16}`` and ``hS in
{128, 256}`` (64 configurations).  Register limits of ``{none, 32, 64}`` (and
additionally 96 for the Tuned configuration) are applied per candidate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.core.config import BlockingConfig
from repro.ir.stencil import StencilPattern

REGISTER_LIMITS: Tuple[Optional[int], ...] = (None, 32, 64, 96)


@dataclass(frozen=True)
class SearchSpace:
    """The set of candidate blocking parameters for one stencil family."""

    time_blocks: Tuple[int, ...]
    spatial_blocks: Tuple[Tuple[int, ...], ...]
    stream_blocks: Tuple[Optional[int], ...]

    def size(self) -> int:
        return len(self.time_blocks) * len(self.spatial_blocks) * len(self.stream_blocks)

    def configurations(self) -> Iterator[BlockingConfig]:
        """Enumerate candidate configurations (register limits are applied
        per candidate later)."""
        for bT, bS, hS in itertools.product(
            self.time_blocks, self.spatial_blocks, self.stream_blocks
        ):
            yield BlockingConfig(bT=bT, bS=bS, hS=hS)


def default_search_space(pattern: StencilPattern) -> SearchSpace:
    """The paper's search space for the stencil's dimensionality."""
    if pattern.ndim == 2:
        return SearchSpace(
            time_blocks=tuple(range(1, 17)),
            spatial_blocks=((128,), (256,), (512,)),
            stream_blocks=(256, 512, 1024),
        )
    return SearchSpace(
        time_blocks=tuple(range(1, 9)),
        spatial_blocks=((16, 16), (16, 32), (32, 32), (16, 64)),
        stream_blocks=(128, 256),
    )
