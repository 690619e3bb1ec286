"""GPU substrate simulation.

The paper evaluates on Tesla P100/V100 hardware; this package substitutes for
that hardware with two cooperating pieces:

* :mod:`repro.sim.executor` — a *functional* executor that runs the exact
  N.5D blocked schedule (spatial blocks, halos, temporal blocking, streaming
  division, remainder launches) on NumPy arrays, so the transformation's
  correctness can be verified against the naive reference executor, and
* :mod:`repro.sim.timing` + :mod:`repro.sim.memory` — a *timing* simulator
  that produces "measured" performance numbers by extending the analytic
  model with the second-order effects the paper attributes the
  model-vs-measured gap to (effective shared-memory bandwidth, occupancy,
  register spilling, double-precision division, synchronisation overhead).
"""

from repro.sim.device import SimulatedGPU
from repro.sim.executor import BlockedStencilExecutor, verify_blocking
from repro.sim.memory import sustained_global_bandwidth, sustained_shared_bandwidth
from repro.sim.timing import SimulatedMeasurement, TimingSimulator, simulate_performance

__all__ = [
    "BlockedStencilExecutor",
    "SimulatedGPU",
    "SimulatedMeasurement",
    "TimingSimulator",
    "simulate_performance",
    "sustained_global_bandwidth",
    "sustained_shared_bandwidth",
    "verify_blocking",
]
