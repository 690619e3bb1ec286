"""A simulated GPU device: the spec plus the sustained-performance knobs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.gpu_specs import GpuSpec, get_gpu
from repro.sim.memory import sustained_global_bandwidth, sustained_shared_bandwidth


@dataclass(frozen=True)
class SimulatedGPU:
    """A device the timing simulator can 'run' kernels on."""

    spec: GpuSpec

    @staticmethod
    def from_name(name: str) -> "SimulatedGPU":
        return SimulatedGPU(get_gpu(name))

    def sustained_compute_gflops(self, dtype: str, alu_efficiency: float) -> float:
        """Compute throughput after discounting the FMA mix."""
        return self.spec.peak_gflops(dtype) * alu_efficiency

    def sustained_global_gbs(self, dtype: str, occupancy: float) -> float:
        return sustained_global_bandwidth(self.spec, dtype, occupancy)

    def sustained_shared_gbs(self, dtype: str, occupancy: float) -> float:
        return sustained_shared_bandwidth(self.spec, dtype, occupancy)

    def division_penalty(self, dtype: str, has_division: bool) -> float:
        """Slowdown of the compute pipeline for double-precision division.

        Section 7.1: NVCC generates inefficient machine code for
        double-precision division (the ``--use_fast_math`` fast path only
        exists for single precision), noticeably slowing the ``j*`` stencils
        in double precision.
        """
        if has_division and dtype == "double":
            return self.spec.fp64_division_penalty
        return 1.0
