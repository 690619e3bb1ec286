"""Bundling of generated CUDA sources."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.host_gen import generate_host
from repro.codegen.kernel_gen import cuda_names, generate_kernel
from repro.core.plan import KernelPlan


@dataclass(frozen=True)
class CudaSourcePackage:
    """The kernel + host sources generated for one stencil configuration."""

    kernel_name: str
    host_name: str
    kernel_source: str
    host_source: str

    @property
    def full_source(self) -> str:
        """A single translation unit containing kernel and host code."""
        return self.kernel_source + "\n" + self.host_source

    def nvcc_command(self, register_limit: int | None = None) -> str:
        """The compile command the paper uses (Section 6.2)."""
        flags = [
            "-gencode=arch=compute_70,code=sm_70",
            "--use_fast_math",
            "-Xcompiler",
            "-O3",
            "-fopenmp",
        ]
        if register_limit is not None:
            flags.append(f"-maxrregcount={register_limit}")
        return "nvcc " + " ".join(flags) + " an5d_generated.cu -o an5d_generated"


def generate_cuda(plan: KernelPlan) -> CudaSourcePackage:
    """Generate kernel + host source for one kernel plan."""
    kernel_name, host_name = cuda_names(plan)
    return CudaSourcePackage(
        kernel_name=kernel_name,
        host_name=host_name,
        kernel_source=generate_kernel(plan),
        host_source=generate_host(plan),
    )
