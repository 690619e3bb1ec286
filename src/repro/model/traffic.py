"""Memory-traffic and FLOP totals (Section 5, Table 2).

Shared-memory accesses per thread follow Table 2 of the paper:

=========  ==========================  =======================  ======
Shape      Read (expected)             Read (practical)         Write
=========  ==========================  =======================  ======
2D star    ``2*rad``                   ``2*rad``                1
2D box     ``(2*rad+1)^2 - (2*rad+1)`` ``(2*rad+1) - 1``        1
3D star    ``4*rad``                   ``4*rad``                1
3D box     ``(2*rad+1)^3 - (2*rad+1)`` ``(2*rad+1)^2 - 1``      1
=========  ==========================  =======================  ======

The "expected" column is the number of distinct shared-memory addresses each
CALC/STORE body of the emitted kernel loads.  The "practical" column is a
modelled assumption, not a measurement: the paper attributes it to NVCC
caching shared-memory values in registers (one read per stencil column),
which nothing here can observe.  The model uses the practical values, as the
authors found the expected values underestimate performance for box stencils.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BlockingConfig
from repro.ir.classify import StencilShape
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.threads import ThreadWorkCounts, count_thread_work


@dataclass(frozen=True)
class SharedMemoryAccess:
    """Per-thread shared-memory access counts (one cell update)."""

    reads_expected: int
    reads_practical: int
    writes: int


def shared_memory_access_per_thread(pattern: StencilPattern) -> SharedMemoryAccess:
    """Table 2: shared-memory reads/writes per thread for one update."""
    rad = pattern.radius
    points_per_column = 2 * rad + 1
    if pattern.shape is StencilShape.STAR:
        expected = 2 * rad * (pattern.ndim - 1)
        return SharedMemoryAccess(expected, expected, 1)
    # Box and general stencils: all points except the register-held column.
    total_points = points_per_column ** pattern.ndim
    expected = total_points - points_per_column
    practical_reads = points_per_column ** (pattern.ndim - 1) - 1
    return SharedMemoryAccess(expected, practical_reads, 1)


@dataclass(frozen=True)
class TrafficTotals:
    """Aggregate traffic and computation for one full stencil run."""

    total_flops: float
    useful_flops: float
    global_bytes: float
    shared_bytes: float
    alu_efficiency: float
    thread_work: ThreadWorkCounts


#: Memo for compute_traffic: traffic totals are identical for every register
#: limit of a configuration, so tuning sweeps that fan one config out over
#: several ``-maxrregcount`` values hit the cache after the first variant.
#: Keys use the pattern's identity token (see StencilPattern.cache_key).
_TRAFFIC_CACHE: dict = {}
_TRAFFIC_CACHE_MAX = 1 << 16


def clear_traffic_cache() -> None:
    _TRAFFIC_CACHE.clear()


def compute_traffic(
    pattern: StencilPattern,
    grid: GridSpec,
    config: BlockingConfig,
) -> TrafficTotals:
    """Total global/shared traffic and FLOPs for running ``grid.time_steps``.

    Results are memoized per (pattern, grid, configuration-sans-register-limit).
    """
    base_config = config if config.register_limit is None else config.with_register_limit(None)
    key = (pattern.cache_key, grid, base_config)
    cached = _TRAFFIC_CACHE.get(key)
    if cached is None:
        cached = _compute_traffic(pattern, grid, base_config)
        if len(_TRAFFIC_CACHE) >= _TRAFFIC_CACHE_MAX:
            _TRAFFIC_CACHE.clear()
        _TRAFFIC_CACHE[key] = cached
    return cached


def _compute_traffic(
    pattern: StencilPattern, grid: GridSpec, config: BlockingConfig
) -> TrafficTotals:
    work = count_thread_work(pattern, grid, config)
    flops_per_cell = pattern.flops.total
    word_bytes = pattern.word_bytes

    access = shared_memory_access_per_thread(pattern)

    total_flops = work.compute * flops_per_cell
    useful_flops = grid.cells * grid.time_steps * flops_per_cell
    global_bytes = (work.gm_read + work.gm_write) * word_bytes
    shared_bytes = (work.sm_read * access.reads_practical + work.sm_write * access.writes) * word_bytes

    return TrafficTotals(
        total_flops=float(total_flops),
        useful_flops=float(useful_flops),
        global_bytes=float(global_bytes),
        shared_bytes=float(shared_bytes),
        alu_efficiency=pattern.flops.alu_efficiency,
        thread_work=work,
    )
