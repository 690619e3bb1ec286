"""Hybrid hexagonal/classical tiling baseline (Grosser et al., Section 3).

Hybrid tiling performs non-redundant temporal blocking: hexagonal tiles along
one spatial dimension resolve the temporal dependency without overlapping,
and the remaining dimensions are blocked in a wavefront manner.  Its
characteristics relative to N.5D blocking:

* no redundant computation, but
* **all** spatial dimensions are blocked (no streaming), so for a given
  amount of on-chip memory the blocks are much smaller, which raises the
  ratio of halo (inter-tile) traffic to useful work — especially in 3D, and
* the wavefront schedule serialises part of the block-level parallelism.

The model chooses the largest hexagon/wavefront tile that fits in shared
memory, computes the resulting global traffic (one read + one write per tile
per ``bT`` steps plus the tile-boundary traffic), and applies a parallelism
efficiency that accounts for the phased hexagonal schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import BaselineResult
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.sim.device import SimulatedGPU

_GIGA = 1.0e9

#: Temporal block height used by the tuned hybrid-tiling configurations
#: (the paper's search explores bT in [2, 20] for 2D and [2, 12] for 3D).
DEFAULT_TIME_HEIGHT_2D = 8
DEFAULT_TIME_HEIGHT_3D = 4

#: Only part of the tiles of a hexagonal schedule are executable in each
#: phase (Fig. 2: odd and even tiles alternate).
_HEX_PHASE_EFFICIENCY = 0.65

#: Wavefront dependencies across the non-hexagonal dimensions further limit
#: concurrency for 3D stencils.
_WAVEFRONT_EFFICIENCY_3D = 0.55


@dataclass(frozen=True)
class HybridTilingBaseline:
    """Simulated hybrid (hexagonal + wavefront) tiling on one device."""

    gpu: GpuSpec

    @staticmethod
    def from_name(name: str) -> "HybridTilingBaseline":
        return HybridTilingBaseline(get_gpu(name))

    # -- tile selection ---------------------------------------------------------
    def tile_cells(self, pattern: StencilPattern) -> int:
        """Cells per tile: the largest tile that fits the shared memory budget.

        Without streaming the whole tile (all dimensions) must be resident,
        double buffered across time steps.
        """
        budget = self.gpu.shared_memory_per_sm_bytes // 2  # leave room for 2 blocks/SM
        cells = budget // (2 * pattern.word_bytes)
        return max(int(cells), 1)

    def time_height(self, pattern: StencilPattern) -> int:
        return DEFAULT_TIME_HEIGHT_2D if pattern.ndim == 2 else DEFAULT_TIME_HEIGHT_3D

    def _halo_fraction(self, pattern: StencilPattern, tile_cells: int, bT: int) -> float:
        """Extra on-chip/global traffic caused by tile-boundary exchange.

        For a d-dimensional tile of ``n`` cells with side ``n**(1/d)``, the
        wavefront/hexagonal boundary region grows with ``bT * rad`` on each
        face of the non-streamed dimensions.
        """
        side = tile_cells ** (1.0 / pattern.ndim)
        reach = bT * pattern.radius
        ratio = (side + 2 * reach) ** pattern.ndim / tile_cells
        return ratio - 1.0

    # -- simulation ----------------------------------------------------------------
    def simulate(self, pattern: StencilPattern, grid: GridSpec) -> BaselineResult:
        device = SimulatedGPU(self.gpu)
        bT = self.time_height(pattern)
        tile_cells = self.tile_cells(pattern)
        halo_fraction = self._halo_fraction(pattern, tile_cells, bT)

        cells = grid.cells
        updates = cells * grid.time_steps
        useful_flops = updates * pattern.flops.total

        # Global traffic: one read + one write of the grid per bT time steps,
        # plus the inter-tile boundary traffic (non-redundant but still moved).
        word = pattern.word_bytes
        passes = grid.time_steps / bT
        global_bytes = passes * cells * word * (2.0 + halo_fraction)

        # Shared traffic: every update reads its non-register neighbours from
        # on-chip storage; like N.5D kernels the thread's own column can stay
        # in registers along the wavefront direction.
        from repro.model.traffic import shared_memory_access_per_thread

        access = shared_memory_access_per_thread(pattern)
        shared_bytes = updates * (access.reads_practical + access.writes) * word

        # Parallelism: phased hexagonal schedule plus (for 3D) wavefront
        # serialisation; block sizes are small so occupancy itself is fine.
        efficiency = _HEX_PHASE_EFFICIENCY
        if pattern.ndim == 3:
            efficiency *= _WAVEFRONT_EFFICIENCY_3D

        compute_gflops = device.sustained_compute_gflops(pattern.dtype, pattern.flops.alu_efficiency)
        division_penalty = device.division_penalty(pattern.dtype, pattern.has_division)
        time_compute = useful_flops / (compute_gflops * _GIGA) * division_penalty
        time_global = global_bytes / (device.sustained_global_gbs(pattern.dtype, 0.8) * _GIGA)
        time_shared = shared_bytes / (device.sustained_shared_gbs(pattern.dtype, 0.8) * _GIGA)

        times = {"compute": time_compute, "global": time_global, "shared": time_shared}
        bottleneck = max(times, key=times.get)
        total = (times[bottleneck] + 0.25 * sum(v for k, v in times.items() if k != bottleneck))
        total /= efficiency

        registers = 28 if pattern.dtype == "float" else 40
        return BaselineResult(
            framework="Hybrid Tiling",
            gflops=useful_flops / total / _GIGA,
            gcells=updates / total / _GIGA,
            time_s=total,
            registers_per_thread=registers,
            occupancy=efficiency,
            notes=f"bT={bT}, tile={tile_cells} cells, bottleneck={bottleneck}",
        )
