"""GPU device specifications (Table 4).

Peak compute and the *measured* memory bandwidths are taken verbatim from the
paper (the authors measured them with BabelStream and gpumembench); the
remaining architectural constants (shared memory per SM, register file,
thread limits) are the published specifications of the Pascal/Volta Tesla
parts.  ``shared_efficiency`` is the empirical knob discussed in Section 7.2:
the fraction of the measured shared-memory bandwidth the N.5D kernels
actually sustain — roughly 0.67 on V100 and less than half that on P100 —
used only by the timing simulator, never by the analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Dict


@dataclass(frozen=True)
class GpuSpec:
    """Specification of one GPU model."""

    name: str
    peak_gflops_float: float
    peak_gflops_double: float
    peak_membw_gbs: float
    measured_membw_float_gbs: float
    measured_membw_double_gbs: float
    measured_smembw_float_gbs: float
    measured_smembw_double_gbs: float
    sm_count: int
    shared_memory_per_sm_bytes: int
    # Limits Pascal and Volta share (compute capability 6.0 and 7.0).
    registers_per_sm: ClassVar[int] = 65536
    max_registers_per_thread: ClassVar[int] = 255
    max_threads_per_sm: ClassVar[int] = 2048
    max_threads_per_block: ClassVar[int] = 1024
    max_blocks_per_sm: ClassVar[int] = 32
    shared_efficiency_float: float = 1.0
    shared_efficiency_double: float = 1.0
    fp64_division_penalty: float = 1.0

    # -- dtype-aware accessors ------------------------------------------------
    def peak_gflops(self, dtype: str) -> float:
        return self.peak_gflops_float if dtype == "float" else self.peak_gflops_double

    def measured_membw(self, dtype: str) -> float:
        return (
            self.measured_membw_float_gbs
            if dtype == "float"
            else self.measured_membw_double_gbs
        )

    def measured_smembw(self, dtype: str) -> float:
        return (
            self.measured_smembw_float_gbs
            if dtype == "float"
            else self.measured_smembw_double_gbs
        )

    def shared_efficiency(self, dtype: str) -> float:
        return (
            self.shared_efficiency_float if dtype == "float" else self.shared_efficiency_double
        )


TESLA_V100 = GpuSpec(
    name="Tesla V100 SXM2",
    peak_gflops_float=15700.0,
    peak_gflops_double=7850.0,
    peak_membw_gbs=900.0,
    measured_membw_float_gbs=791.0,
    measured_membw_double_gbs=805.0,
    measured_smembw_float_gbs=10650.0,
    measured_smembw_double_gbs=12750.0,
    sm_count=80,
    shared_memory_per_sm_bytes=96 * 1024,
    # Section 7.2: average model accuracy 67 % on V100 with shared memory the
    # predicted bottleneck in nearly every case.
    shared_efficiency_float=0.78,
    shared_efficiency_double=0.70,
    # Section 7.1: NVCC emits inefficient code for double-precision division.
    fp64_division_penalty=5.0,
)

TESLA_P100 = GpuSpec(
    name="Tesla P100 SXM2",
    peak_gflops_float=10600.0,
    peak_gflops_double=5300.0,
    peak_membw_gbs=720.0,
    measured_membw_float_gbs=535.0,
    measured_membw_double_gbs=540.0,
    measured_smembw_float_gbs=9700.0,
    measured_smembw_double_gbs=10150.0,
    sm_count=56,
    shared_memory_per_sm_bytes=64 * 1024,
    # Section 7.2: P100 sustains less than half the shared-memory bandwidth of
    # V100 for the same kernels (average model accuracy 49 %).
    shared_efficiency_float=0.40,
    shared_efficiency_double=0.38,
    fp64_division_penalty=5.5,
)

GPUS: Dict[str, GpuSpec] = {
    "V100": TESLA_V100,
    "P100": TESLA_P100,
}

_ALIASES = {
    "v100": "V100",
    "tesla v100": "V100",
    "tesla v100 sxm2": "V100",
    "volta": "V100",
    "p100": "P100",
    "tesla p100": "P100",
    "tesla p100 sxm2": "P100",
    "pascal": "P100",
}


@lru_cache(maxsize=None)
def get_gpu(name: str) -> GpuSpec:
    """Look up a GPU spec by name (case-insensitive, common aliases accepted)."""
    key = _ALIASES.get(name.strip().lower())
    if key is None:
        raise KeyError(f"unknown GPU {name!r}; available: {', '.join(GPUS)}")
    return GPUS[key]
