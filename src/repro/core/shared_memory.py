"""Shared-memory planning (Sections 4.1–4.2.2, Table 1).

AN5D keeps *two* shared-memory buffers regardless of the temporal blocking
degree (double buffering lets the kernel skip the second block
synchronisation without ever holding more than the current and previous
sub-plane exchange).  STENCILGEN, in contrast, keeps one buffer per combined
time step, so its footprint grows linearly with ``bT``.

Footprints per thread block (Table 1)::

                          STENCILGEN                       AN5D
  diagonal-free / assoc.  nthr * bT * nword                2 * nthr * nword
  otherwise               nthr * bT * (1+2*rad) * nword    2 * nthr * (1+2*rad) * nword

Stores per cell: 1 for diagonal-access-free and associative stencils,
``1 + 2*rad`` otherwise, identical for both frameworks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BlockingConfig
from repro.ir.stencil import StencilPattern

#: Bytes in the ``nword`` unit of Table 1 (a 32-bit word).
WORD_BYTES = 4


@dataclass(frozen=True)
class SharedMemoryPlan:
    """Shared-memory layout of one generated kernel."""

    buffers: int
    planes_per_buffer: int
    words_per_cell: int
    threads_per_block: int
    stores_per_cell: int
    double_buffered: bool

    @property
    def words_per_block(self) -> int:
        return self.buffers * self.planes_per_buffer * self.threads_per_block * self.words_per_cell

    @property
    def bytes_per_block(self) -> int:
        return self.words_per_block * WORD_BYTES

    def max_blocks_per_sm(self, shared_memory_bytes: int) -> int:
        return shared_memory_bytes // self.bytes_per_block


def an5d_shared_memory_plan(pattern: StencilPattern, config: BlockingConfig) -> SharedMemoryPlan:
    """AN5D's plan: double (or single) buffering of one exchange plane."""
    single_plane = config.use_star_optimization(pattern) or config.use_associative_optimization(
        pattern
    )
    planes = 1 if single_plane else 1 + 2 * pattern.radius
    buffers = 2 if config.double_buffer else 1
    return SharedMemoryPlan(
        buffers=buffers,
        planes_per_buffer=planes,
        words_per_cell=pattern.nword,
        threads_per_block=config.nthr,
        stores_per_cell=1 if single_plane else 1 + 2 * pattern.radius,
        double_buffered=config.double_buffer,
    )


def stencilgen_shared_memory_plan(
    pattern: StencilPattern, config: BlockingConfig
) -> SharedMemoryPlan:
    """STENCILGEN's plan: one buffer per combined time step (Table 1).

    The same stencil classification switches as AN5D are honoured so that
    forced-general comparisons (the "otherwise" row of Table 1) stay
    apples-to-apples.
    """
    single_plane = config.use_star_optimization(pattern) or config.use_associative_optimization(
        pattern
    )
    planes = 1 if single_plane else 1 + 2 * pattern.radius
    return SharedMemoryPlan(
        buffers=config.bT,
        planes_per_buffer=planes,
        words_per_cell=pattern.nword,
        threads_per_block=config.nthr,
        stores_per_cell=1 if single_plane else 1 + 2 * pattern.radius,
        double_buffered=False,
    )


def synchronizations_per_subplane(config: BlockingConfig) -> int:
    """Block synchronisations needed per sub-plane update per time step.

    Without double buffering the kernel synchronises twice (once to wait for
    the previous time step's result, once to avoid overwriting shared memory
    that is still being read); double buffering removes the second barrier
    (Section 4.2.2).
    """
    return 1 if config.double_buffer else 2
