"""The top-level AN5D transformation: stencil pattern → kernel plan."""

from __future__ import annotations

from repro.core.config import BlockingConfig
from repro.core.plan import KernelPlan, PipelineScheduler
from repro.core.shared_memory import an5d_shared_memory_plan
from repro.ir.stencil import StencilPattern


def an5d_transform(pattern: StencilPattern, config: BlockingConfig) -> KernelPlan:
    """Apply AN5D's blocking and low-level optimizations to one stencil.

    The result is a :class:`~repro.core.plan.KernelPlan`: the macro schedule
    of the three streaming phases, whose arguments encode the fixed register
    allocation's rotation, plus the resource plans (double-buffered shared
    memory, optimization selection) that the CUDA generators in
    :mod:`repro.codegen` turn into source text.
    """
    config.validate(pattern)
    scheduler = PipelineScheduler(pattern, config)
    smem = an5d_shared_memory_plan(pattern, config)
    return KernelPlan(
        pattern=pattern,
        config=config,
        phases=scheduler.build(),
        use_star_opt=config.use_star_optimization(pattern),
        use_associative_opt=config.use_associative_optimization(pattern),
        smem_buffers=smem.buffers,
        smem_planes_per_buffer=smem.planes_per_buffer,
    )
