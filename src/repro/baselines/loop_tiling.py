"""Plain loop tiling baseline (PPCG's default schedule, Section 6.1).

Loop tiling blocks the spatial loops for cache locality but performs no
temporal blocking: every time step reads the grid from global memory and
writes it back.  On a memory-bound stencil its performance is therefore
bounded by ``bandwidth / (2 * word_bytes)`` cell updates per second,
discounted by the efficiency of a generic (not stencil-specialised) kernel:
no shared-memory staging, imperfect coalescing at tile edges, and the halo
reads each tile repeats from its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import BaselineResult
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.sim.device import SimulatedGPU

_GIGA = 1.0e9

#: PPCG's default (square/cubic) tile edge.
TILE_EDGE = 32

#: Fraction of the measured streaming bandwidth a generic PPCG kernel
#: sustains on these devices (uncoalesced edges, no texture/smem staging).
_GLOBAL_EFFICIENCY = 0.55


@dataclass(frozen=True)
class LoopTilingBaseline:
    """Simulated PPCG loop tiling on one device."""

    gpu: GpuSpec

    @staticmethod
    def from_name(name: str) -> "LoopTilingBaseline":
        return LoopTilingBaseline(get_gpu(name))

    def simulate(self, pattern: StencilPattern, grid: GridSpec) -> BaselineResult:
        device = SimulatedGPU(self.gpu)
        cells = grid.cells
        updates = cells * grid.time_steps
        useful_flops = updates * pattern.flops.total
        word = pattern.word_bytes

        # Per time step: read every cell (plus the per-tile halo re-reads that
        # miss in cache) and write every cell.
        halo_rereads = (
            (TILE_EDGE + 2 * pattern.radius) ** pattern.ndim / TILE_EDGE**pattern.ndim
            - 1.0
        )
        global_bytes = updates * word * (2.0 + halo_rereads)

        bandwidth = self.gpu.measured_membw(pattern.dtype) * _GLOBAL_EFFICIENCY
        time_global = global_bytes / (bandwidth * _GIGA)

        compute_gflops = device.sustained_compute_gflops(pattern.dtype, pattern.flops.alu_efficiency)
        division_penalty = device.division_penalty(pattern.dtype, pattern.has_division)
        time_compute = useful_flops / (compute_gflops * _GIGA) * division_penalty

        total = max(time_global, time_compute) + 0.1 * min(time_global, time_compute)
        registers = 24 if pattern.dtype == "float" else 32
        return BaselineResult(
            framework="Loop Tiling",
            gflops=useful_flops / total / _GIGA,
            gcells=updates / total / _GIGA,
            time_s=total,
            registers_per_thread=registers,
            occupancy=1.0,
            notes="no temporal blocking; one global round trip per time step",
        )
