"""The roofline performance prediction (Section 5, final step).

Three candidate bottlenecks are considered — compute, global memory and
shared memory — and the predicted runtime is the slowest of the three divided
by the SM utilisation efficiency:

.. math::

    time_{model} = \\frac{\\max(time_{comp}, time_{sm}, time_{gm})}{eff_{SM}}

Registers are deliberately ignored (the model assumes no spilling), which is
one of the two reasons the model over-predicts (the other being the effective
shared-memory bandwidth of real kernels, see Section 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BlockingConfig
from repro.core.execution_model import ExecutionModel
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model.gpu_specs import GpuSpec
from repro.model.occupancy import paper_sm_efficiency
from repro.model.traffic import TrafficTotals, compute_traffic

_GIGA = 1.0e9


@dataclass(frozen=True)
class PerformancePrediction:
    """Model output for one (stencil, grid, configuration, GPU) combination."""

    time_compute_s: float
    time_global_s: float
    time_shared_s: float
    sm_efficiency: float
    time_s: float
    gflops: float
    gcells: float
    bottleneck: str
    traffic: TrafficTotals


def predict_performance(
    pattern: StencilPattern,
    grid: GridSpec,
    config: BlockingConfig,
    gpu: GpuSpec,
) -> PerformancePrediction:
    """Predict runtime and throughput of one AN5D kernel configuration."""
    traffic = compute_traffic(pattern, grid, config)
    model = ExecutionModel(pattern, grid, config)

    peak_comp = gpu.peak_gflops(pattern.dtype) * _GIGA * traffic.alu_efficiency
    peak_gm = gpu.measured_membw(pattern.dtype) * _GIGA
    peak_sm = gpu.measured_smembw(pattern.dtype) * _GIGA

    time_compute = traffic.total_flops / peak_comp
    time_global = traffic.global_bytes / peak_gm
    time_shared = traffic.shared_bytes / peak_sm

    eff_sm = paper_sm_efficiency(model.total_thread_blocks, config.nthr, gpu)
    eff_sm = max(eff_sm, 1.0e-6)

    times = {
        "compute": time_compute,
        "global_memory": time_global,
        "shared_memory": time_shared,
    }
    bottleneck = max(times, key=times.get)
    time_total = times[bottleneck] / eff_sm

    gflops = traffic.useful_flops / time_total / _GIGA if time_total > 0 else 0.0
    cells = grid.cells * grid.time_steps
    gcells = cells / time_total / _GIGA if time_total > 0 else 0.0

    return PerformancePrediction(
        time_compute_s=time_compute,
        time_global_s=time_global,
        time_shared_s=time_shared,
        sm_efficiency=eff_sm,
        time_s=time_total,
        gflops=gflops,
        gcells=gcells,
        bottleneck=bottleneck,
        traffic=traffic,
    )
