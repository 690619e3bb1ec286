"""The timing simulator: "measured" performance of generated kernels.

The simulator starts from the same traffic totals as the analytic model of
Section 5 and layers on the effects the paper identifies as the sources of
the model-vs-measured gap:

* sustained (occupancy-dependent, device-specific) shared and global memory
  bandwidth instead of measured peaks,
* register pressure: the occupancy impact of the per-thread register demand
  and the spill penalty when a ``-maxrregcount`` cap is exceeded,
* the double-precision division slowdown of the ``j*`` stencils,
* ``__syncthreads`` barrier and kernel-launch overheads (these are what make
  very high temporal blocking degrees and very small stream blocks lose).

It simulates AN5D kernels only: each baseline in :mod:`repro.baselines`
computes its own occupancy and timing from its resource models (register
allocation, shared-memory multi-buffering, redundancy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import BlockingConfig
from repro.core.execution_model import ExecutionModel
from repro.core.shared_memory import synchronizations_per_subplane
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GpuSpec
from repro.model.occupancy import occupancy_for
from repro.model.registers import effective_registers, estimate_registers, spill_penalty
from repro.model.traffic import compute_traffic
from repro.sim.device import SimulatedGPU
from repro.sim.memory import kernel_launch_overhead_seconds, synchronization_cost_seconds

_GIGA = 1.0e9


@dataclass(frozen=True)
class SimulatedMeasurement:
    """The simulator's analogue of one timed benchmark run."""

    time_s: float
    gflops: float
    gcells: float
    occupancy: float
    registers_per_thread: int
    limiting_factor: str
    bottleneck: str
    time_compute_s: float
    time_global_s: float
    time_shared_s: float
    overhead_s: float

    def as_row(self) -> dict[str, float | str]:
        return {
            "time_s": self.time_s,
            "gflops": self.gflops,
            "gcells": self.gcells,
            "occupancy": self.occupancy,
            "registers": self.registers_per_thread,
            "bottleneck": self.bottleneck,
        }


class TimingSimulator:
    """Simulates kernel execution time on one device."""

    def __init__(self, gpu: GpuSpec | SimulatedGPU | str) -> None:
        if isinstance(gpu, str):
            gpu = SimulatedGPU.from_name(gpu)
        elif isinstance(gpu, GpuSpec):
            gpu = SimulatedGPU(gpu)
        self.device = gpu

    # -- main entry point -----------------------------------------------------
    def simulate(
        self,
        pattern: StencilPattern,
        grid: GridSpec,
        config: BlockingConfig,
    ) -> SimulatedMeasurement:
        """Simulate one full benchmark run (``grid.time_steps`` steps)."""
        spec = self.device.spec
        model = ExecutionModel(pattern, grid, config)
        traffic = compute_traffic(pattern, grid, config)
        occupancy = occupancy_for(pattern, grid, config, spec)
        registers = effective_registers(pattern, config)
        demand = estimate_registers(pattern, config)

        # -- compute time ---------------------------------------------------
        compute_gflops = self.device.sustained_compute_gflops(
            pattern.dtype, traffic.alu_efficiency
        )
        division_penalty = self.device.division_penalty(pattern.dtype, pattern.has_division)
        time_compute = traffic.total_flops / (compute_gflops * _GIGA) * division_penalty

        # -- memory times -----------------------------------------------------
        effective_occupancy = occupancy.occupancy * min(occupancy.wave_efficiency, 1.0)
        global_gbs = self.device.sustained_global_gbs(pattern.dtype, effective_occupancy)
        shared_gbs = self.device.sustained_shared_gbs(pattern.dtype, effective_occupancy)
        if global_gbs <= 0 or shared_gbs <= 0:
            return self._unlaunchable(occupancy, registers)
        time_global = traffic.global_bytes / (global_gbs * _GIGA)
        time_shared = traffic.shared_bytes / (shared_gbs * _GIGA)

        # -- register spilling ------------------------------------------------
        penalty = spill_penalty(registers, demand)
        time_compute *= penalty
        time_global *= penalty

        # -- fixed overheads ---------------------------------------------------
        launches = traffic.thread_work.launches
        planes = model.subplanes_per_stream_block()
        syncs_per_block = planes * config.bT * synchronizations_per_subplane(config)
        overhead = kernel_launch_overhead_seconds(launches) + synchronization_cost_seconds(
            spec,
            syncs_per_block,
            model.total_thread_blocks * launches,
            occupancy.blocks_per_sm,
        )

        times = {
            "compute": time_compute,
            "global_memory": time_global,
            "shared_memory": time_shared,
        }
        bottleneck = max(times, key=times.get)
        # Non-bottleneck pipelines overlap with the bottleneck but not
        # perfectly; a small fraction of their time leaks into the total.
        total = times[bottleneck] + 0.12 * sum(
            value for key, value in times.items() if key != bottleneck
        ) + overhead

        useful = traffic.useful_flops
        cells = grid.cells * grid.time_steps
        return SimulatedMeasurement(
            time_s=total,
            gflops=useful / total / _GIGA,
            gcells=cells / total / _GIGA,
            occupancy=occupancy.occupancy,
            registers_per_thread=registers.per_thread,
            limiting_factor=occupancy.limiting_factor,
            bottleneck=bottleneck,
            time_compute_s=time_compute,
            time_global_s=time_global,
            time_shared_s=time_shared,
            overhead_s=overhead,
        )

    def _unlaunchable(self, occupancy, registers) -> SimulatedMeasurement:
        """A configuration whose blocks do not fit on an SM at all."""
        return SimulatedMeasurement(
            time_s=math.inf,
            gflops=0.0,
            gcells=0.0,
            occupancy=0.0,
            registers_per_thread=registers.per_thread,
            limiting_factor=occupancy.limiting_factor,
            bottleneck="unlaunchable",
            time_compute_s=math.inf,
            time_global_s=math.inf,
            time_shared_s=math.inf,
            overhead_s=0.0,
        )


def simulate_performance(
    pattern: StencilPattern,
    grid: GridSpec,
    config: BlockingConfig,
    gpu: GpuSpec | str,
) -> SimulatedMeasurement:
    """Convenience wrapper around :class:`TimingSimulator`."""
    return TimingSimulator(gpu).simulate(pattern, grid, config)
