"""STENCILGEN baseline model (Rawat et al., Section 3 and Table 1).

STENCILGEN implements the same N.5D blocking idea as AN5D but with the
resource strategy AN5D improves on:

* **shifting** register allocation — ``1 + 2*rad`` register moves per
  sub-plane update and a few extra live registers for the shift chains,
* **multi-buffered** shared memory — one buffer per combined time step, so
  the footprint (and the occupancy hit) grows linearly with ``bT``,
* temporal blocking degree limited to 4 in the published kernels.

The model reuses AN5D's execution geometry and traffic accounting and swaps
in STENCILGEN's register and shared-memory plans, then runs the same timing
simulation.  Extra register-move instructions are charged to the compute
pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines.common import BaselineResult
from repro.core.config import BlockingConfig, sconf_configuration
from repro.core.execution_model import ExecutionModel
from repro.core.register_alloc import ShiftingRegisterAllocation
from repro.core.shared_memory import stencilgen_shared_memory_plan
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.model.registers import stencilgen_registers
from repro.model.traffic import compute_traffic
from repro.sim.device import SimulatedGPU
from repro.sim.memory import kernel_launch_overhead_seconds, synchronization_cost_seconds

_GIGA = 1.0e9

#: The published STENCILGEN kernels use bT = 4, 128-wide 2D blocks and
#: 32x32 3D blocks (Section 6.3, the "Sconf" parameters).
MAX_SUPPORTED_BT = 4


@dataclass(frozen=True)
class StencilGenBaseline:
    """Simulated STENCILGEN execution on one device."""

    gpu: GpuSpec

    @staticmethod
    def from_name(name: str) -> "StencilGenBaseline":
        return StencilGenBaseline(get_gpu(name))

    def default_config(self, pattern: StencilPattern) -> BlockingConfig:
        return sconf_configuration(pattern)

    def registers(self, pattern: StencilPattern, config: BlockingConfig) -> int:
        return stencilgen_registers(pattern, config)

    def occupancy(self, pattern: StencilPattern, config: BlockingConfig) -> tuple[int, float, str]:
        """Blocks per SM, occupancy fraction and the limiting factor."""
        smem = stencilgen_shared_memory_plan(pattern, config)
        regs = self.registers(pattern, config)
        nthr = config.nthr
        limits = {
            "threads": self.gpu.max_threads_per_sm // nthr,
            "shared_memory": (
                self.gpu.shared_memory_per_sm_bytes // smem.bytes_per_block
                if smem.bytes_per_block
                else self.gpu.max_blocks_per_sm
            ),
            "registers": self.gpu.registers_per_sm // max(regs * nthr, 1),
            "blocks": self.gpu.max_blocks_per_sm,
        }
        factor = min(limits, key=limits.get)
        blocks = max(min(limits.values()), 0)
        occupancy = min(blocks * nthr / self.gpu.max_threads_per_sm, 1.0)
        return blocks, occupancy, factor

    def simulate(
        self,
        pattern: StencilPattern,
        grid: GridSpec,
        config: BlockingConfig | None = None,
    ) -> BaselineResult:
        if config is None:
            config = self.default_config(pattern)
        if config.bT > MAX_SUPPORTED_BT:
            config = config.with_bT(MAX_SUPPORTED_BT)

        device = SimulatedGPU(self.gpu)
        model = ExecutionModel(pattern, grid, config)
        traffic = compute_traffic(pattern, grid, config)
        blocks_per_sm, occupancy, factor = self.occupancy(pattern, config)
        if blocks_per_sm == 0:
            return BaselineResult("STENCILGEN", 0.0, 0.0, math.inf,
                                  self.registers(pattern, config), 0.0,
                                  notes=f"unlaunchable ({factor})")

        # Compute time, charging the shifting register moves as extra issue slots.
        shifting = ShiftingRegisterAllocation(config.bT, pattern.radius)
        flops_per_cell = traffic.total_flops / max(traffic.thread_work.compute, 1)
        move_overhead = 1.0 + shifting.moves_per_update() / max(flops_per_cell, 1.0)
        compute_gflops = device.sustained_compute_gflops(pattern.dtype, traffic.alu_efficiency)
        division_penalty = device.division_penalty(pattern.dtype, pattern.has_division)
        time_compute = traffic.total_flops / (compute_gflops * _GIGA) * division_penalty * move_overhead

        # Register pressure: spills under tight -maxrregcount values are
        # reflected as an additional penalty (Fig. 7 reports spilling for
        # second-order stencils at the 32-register cap).
        regs = self.registers(pattern, config)
        spill = 1.0
        if config.register_limit is not None and regs > config.register_limit:
            spill = 1.0 + min(0.1 * (regs - config.register_limit), 1.0)

        waves = model.total_thread_blocks / max(blocks_per_sm * self.gpu.sm_count, 1)
        wave_eff = waves / math.ceil(waves) if waves > 0 else 1.0
        effective_occupancy = occupancy * min(wave_eff, 1.0)
        global_gbs = device.sustained_global_gbs(pattern.dtype, effective_occupancy)
        shared_gbs = device.sustained_shared_gbs(pattern.dtype, effective_occupancy)
        time_global = traffic.global_bytes / (global_gbs * _GIGA) * spill
        time_shared = traffic.shared_bytes / (shared_gbs * _GIGA)

        launches = traffic.thread_work.launches
        planes = model.subplanes_per_stream_block()
        # Multi-buffering still needs both barriers per time step.
        syncs = planes * config.bT * 2
        overhead = kernel_launch_overhead_seconds(launches) + synchronization_cost_seconds(
            self.gpu, syncs, model.total_thread_blocks * launches, blocks_per_sm
        )

        times = {"compute": time_compute * spill, "global": time_global, "shared": time_shared}
        bottleneck = max(times, key=times.get)
        total = times[bottleneck] + 0.25 * sum(
            v for k, v in times.items() if k != bottleneck
        ) + overhead
        useful = traffic.useful_flops
        cells = grid.cells * grid.time_steps
        return BaselineResult(
            framework="STENCILGEN",
            gflops=useful / total / _GIGA,
            gcells=cells / total / _GIGA,
            time_s=total,
            registers_per_thread=regs,
            occupancy=occupancy,
            notes=f"bottleneck={bottleneck}, limited by {factor}",
        )
