"""CUDA code generation (Section 4.3).

The generators turn a :class:`~repro.core.plan.KernelPlan` into CUDA C source
text, built as plain lists of indented lines: a kernel built from
LOAD/CALC/STORE macros with statically unrolled head/tail phases and a
rotation-period inner loop, plus host code that calls the kernel once per
``bT`` combined time steps and handles the remainder of the time loop with
statically generated conditional branches.

No CUDA toolchain is required (or used) here — the output is source text,
structurally validated by the test-suite and meant to be compiled with NVCC
on a real system.
"""

from repro.codegen.macros import generate_macro_definitions, render_expression
from repro.codegen.kernel_gen import generate_kernel
from repro.codegen.host_gen import generate_host
from repro.codegen.package import CudaSourcePackage, generate_cuda

__all__ = [
    "CudaSourcePackage",
    "generate_cuda",
    "generate_host",
    "generate_kernel",
    "generate_macro_definitions",
    "render_expression",
]
