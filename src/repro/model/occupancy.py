"""SM occupancy and utilisation efficiency (Section 5, last step).

Two related quantities are computed here:

* the paper's ``effSM`` — a wave-quantisation factor computed exactly as the
  paper defines it (``floor(n'tb / (2048/nthr)) / ceil(n'tb / (2048/nthr))``),
  used by the analytic model, and
* a fuller occupancy calculation (threads, shared memory and registers per
  SM, wave count across all SMs) used by the timing simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import BlockingConfig
from repro.core.execution_model import ExecutionModel
from repro.core.shared_memory import an5d_shared_memory_plan
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GpuSpec
from repro.model.registers import effective_registers


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy of one kernel launch on one device."""

    blocks_per_sm: int
    limiting_factor: str
    active_threads_per_sm: int
    occupancy: float
    waves: float
    wave_efficiency: float


def paper_sm_efficiency(total_blocks: int, nthr: int, gpu: GpuSpec) -> float:
    """``effSM`` exactly as defined in Section 5.

    The quantisation is computed against the 2048-threads-per-SM limit; when
    fewer than one full group of blocks exists the ratio degenerates to the
    filled fraction.
    """
    blocks_per_group = max(gpu.max_threads_per_sm // nthr, 1)
    full = math.floor(total_blocks / blocks_per_group)
    partial = math.ceil(total_blocks / blocks_per_group)  # >= 1: a grid has a block
    if full == 0:
        return total_blocks / blocks_per_group
    return full / partial


#: Memo for occupancy_for, keyed by the pattern's identity token plus the
#: full configuration (occupancy genuinely depends on the register limit).
_OCCUPANCY_CACHE: dict = {}
_OCCUPANCY_CACHE_MAX = 1 << 16


def clear_occupancy_cache() -> None:
    _OCCUPANCY_CACHE.clear()


def occupancy_for(
    pattern: StencilPattern,
    grid: GridSpec,
    config: BlockingConfig,
    gpu: GpuSpec,
    framework: str = "an5d",
) -> OccupancyResult:
    """Detailed occupancy used by the timing simulator (memoized)."""
    key = (pattern.cache_key, grid, config, gpu, framework)
    cached = _OCCUPANCY_CACHE.get(key)
    if cached is None:
        cached = _occupancy_for(pattern, grid, config, gpu, framework)
        if len(_OCCUPANCY_CACHE) >= _OCCUPANCY_CACHE_MAX:
            _OCCUPANCY_CACHE.clear()
        _OCCUPANCY_CACHE[key] = cached
    return cached


def _occupancy_for(
    pattern: StencilPattern,
    grid: GridSpec,
    config: BlockingConfig,
    gpu: GpuSpec,
    framework: str = "an5d",
) -> OccupancyResult:
    model = ExecutionModel(pattern, grid, config)
    nthr = config.nthr
    smem = an5d_shared_memory_plan(pattern, config)
    registers = effective_registers(pattern, config, framework)

    limits = {
        "threads": gpu.max_threads_per_sm // nthr,
        "blocks": gpu.max_blocks_per_sm,
        "shared_memory": (
            gpu.shared_memory_per_sm_bytes // smem.bytes_per_block
            if smem.bytes_per_block
            else gpu.max_blocks_per_sm
        ),
        "registers": (
            gpu.registers_per_sm // registers.per_block
            if registers.per_block
            else gpu.max_blocks_per_sm
        ),
    }
    limiting_factor = min(limits, key=limits.get)
    blocks_per_sm = max(min(limits.values()), 0)

    if blocks_per_sm == 0:
        return OccupancyResult(0, limiting_factor, 0, 0.0, float("inf"), 0.0)

    active_threads = blocks_per_sm * nthr
    occupancy = min(active_threads / gpu.max_threads_per_sm, 1.0)
    total_blocks = model.total_thread_blocks
    concurrent = blocks_per_sm * gpu.sm_count
    waves = total_blocks / concurrent
    wave_efficiency = waves / math.ceil(waves) if waves > 0 else 1.0
    return OccupancyResult(
        blocks_per_sm=blocks_per_sm,
        limiting_factor=limiting_factor,
        active_threads_per_sm=active_threads,
        occupancy=occupancy,
        waves=waves,
        wave_efficiency=wave_efficiency,
    )
