"""AN5D core: the paper's primary contribution.

This package implements the N.5D blocking execution model (Section 4.1), the
low-level optimizations (Section 4.2) and the kernel-plan construction that
code generation consumes (Section 4.3):

* :mod:`repro.core.config` — the ``(bT, bS, hS, ...)`` blocking configuration,
* :mod:`repro.core.execution_model` — thread-block geometry, halos, compute
  regions, streaming division and thread classification,
* :mod:`repro.core.register_alloc` — fixed vs shifting register allocation,
* :mod:`repro.core.shared_memory` — double-buffered shared-memory planning,
* :mod:`repro.core.associative` — partial-summation decomposition,
* :mod:`repro.core.plan` / :mod:`repro.core.transform` — the kernel plan.
"""

from repro.core.config import BlockingConfig, ConfigurationError
from repro.core.execution_model import (
    DimensionCoverage,
    ExecutionModel,
    ThreadCategory,
)
from repro.core.register_alloc import (
    FixedRegisterAllocation,
    RegisterAllocation,
    ShiftingRegisterAllocation,
)
from repro.core.shared_memory import SharedMemoryPlan
from repro.core.associative import PartialSumStep, decompose_partial_sums
from repro.core.plan import KernelPlan, MacroCall, StreamPhase
from repro.core.transform import an5d_transform

__all__ = [
    "BlockingConfig",
    "ConfigurationError",
    "DimensionCoverage",
    "ExecutionModel",
    "FixedRegisterAllocation",
    "KernelPlan",
    "MacroCall",
    "PartialSumStep",
    "RegisterAllocation",
    "SharedMemoryPlan",
    "ShiftingRegisterAllocation",
    "StreamPhase",
    "ThreadCategory",
    "an5d_transform",
    "decompose_partial_sums",
]
