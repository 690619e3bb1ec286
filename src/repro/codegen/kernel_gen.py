"""CUDA kernel generation (Section 4.3.2).

The kernel body mirrors Fig. 5: macro definitions, thread/block index setup,
register declarations for every sub-plane of every time step, then the three
streaming phases — a statically unrolled head, the rotation-period inner loop
and the statically unrolled tail with early exits.
"""

from __future__ import annotations

from typing import List

from repro.codegen.cuda_ast import Block, Declare, For, FuncDef, Raw, Return, Sync
from repro.codegen.emitter import CudaEmitter
from repro.codegen.macros import generate_macro_definitions, macro_call_text, smem_declaration
from repro.core.plan import KernelPlan, MacroCall, StreamPhase


class KernelGenerator:
    """Generates the ``__global__`` kernel for one plan."""

    LOOP_VAR = "__an5d_h"

    def __init__(self, plan: KernelPlan) -> None:
        self.plan = plan
        self.pattern = plan.pattern
        self.config = plan.config
        self.emitter = CudaEmitter()

    # -- naming -----------------------------------------------------------------
    @property
    def kernel_name(self) -> str:
        return f"an5d_kernel_{self.pattern.name.replace('-', '_')}"

    def _parameters(self) -> tuple:
        dtype = self.pattern.dtype
        sizes = [f"int __an5d_is{d}" for d in range(self.pattern.ndim)]
        return (
            f"const {dtype} *__restrict__ __an5d_in",
            f"{dtype} *__restrict__ __an5d_out",
            *sizes,
            "int __an5d_stream_begin",
            "int __an5d_stream_end",
        )

    # -- pieces ------------------------------------------------------------------
    def _index_setup(self) -> List:
        ndim = self.pattern.ndim
        rad = self.pattern.radius
        bT = self.config.bT
        statements: List = [
            Declare("const int", "__an5d_tx", "threadIdx.x"),
        ]
        if ndim == 3:
            statements.append(Declare("const int", "__an5d_ty", "threadIdx.y"))
        compute = self.config.compute_region(rad)
        if ndim == 2:
            statements.append(
                Declare(
                    "const int",
                    "__an5d_gx",
                    f"blockIdx.x * {compute[0]} + __an5d_tx - {bT * rad}",
                )
            )
        else:
            statements.append(
                Declare(
                    "const int",
                    "__an5d_gx",
                    f"blockIdx.x * {compute[-1]} + __an5d_tx - {bT * rad}",
                )
            )
            statements.append(
                Declare(
                    "const int",
                    "__an5d_gy",
                    f"blockIdx.y * {compute[0]} + __an5d_ty - {bT * rad}",
                )
            )
        statements.append(
            Raw(
                "const bool __an5d_in_compute_region = "
                + self._compute_region_condition()
                + ";"
            )
        )
        return statements

    def _compute_region_condition(self) -> str:
        rad = self.pattern.radius
        bT = self.config.bT
        halo = bT * rad
        conditions = []
        if self.pattern.ndim == 2:
            size = self.config.bS[0]
            conditions.append(f"(__an5d_tx >= {halo} && __an5d_tx < {size - halo})")
            conditions.append("(__an5d_gx >= 0 && __an5d_gx < __an5d_is1)")
        else:
            size_y, size_x = self.config.bS
            conditions.append(f"(__an5d_ty >= {halo} && __an5d_ty < {size_y - halo})")
            conditions.append(f"(__an5d_tx >= {halo} && __an5d_tx < {size_x - halo})")
            conditions.append("(__an5d_gy >= 0 && __an5d_gy < __an5d_is1)")
            conditions.append("(__an5d_gx >= 0 && __an5d_gx < __an5d_is2)")
        return " && ".join(conditions)

    def _register_declarations(self) -> List:
        dtype = self.pattern.dtype
        names = ", ".join(reg.name for reg in self.plan.registers.all_registers()
                          if reg.time_step < self.config.bT)
        return [Raw(f"{dtype} {names};")]

    def _phase_statements(self, phase: StreamPhase) -> List:
        """Render one phase's macro calls, inserting barriers between time steps."""
        statements: List = []
        previous_step: int | None = None
        for call in phase.calls:
            if previous_step is not None and call.time_step != previous_step:
                statements.append(Sync())
            statements.append(Raw(self._render_call(call)))
            previous_step = call.time_step
        return statements

    def _render_call(self, call: MacroCall) -> str:
        plane = call.render_plane(self.LOOP_VAR)
        if call.plane_is_relative:
            plane = f"__an5d_stream_begin + ({plane})"
        else:
            plane = f"__an5d_stream_begin + {plane}"
        return macro_call_text(self.plan, call.kind, call.time_step, plane, call.args)

    def _inner_loop(self) -> For:
        phase = self.plan.inner
        body = Block(self._phase_statements(phase))
        start = self.plan.head.calls[-1].plane + 1 if self.plan.head.calls else 0
        loop = For(
            init=f"int {self.LOOP_VAR} = {len([c for c in self.plan.head.calls if c.kind == 'LOAD'])}",
            condition=f"{self.LOOP_VAR} <= __an5d_stream_end - __an5d_stream_begin - {phase.loop_step}",
            step=f"{self.LOOP_VAR} += {phase.loop_step}",
            body=body,
        )
        return loop

    def _tail(self) -> List:
        statements: List = []
        phase = self.plan.tail
        statements.append(
            Raw(f"int {self.LOOP_VAR}_tail = __an5d_stream_end - __an5d_stream_begin;")
        )
        statements.extend(
            Raw(self._render_call(call).replace(self.LOOP_VAR, f"{self.LOOP_VAR}_tail"))
            for call in phase.calls
        )
        statements.append(Return())
        return statements

    # -- assembly -------------------------------------------------------------------
    def generate(self) -> str:
        plan = self.plan
        block_dims = [str(v) for v in reversed(self.config.bS)]
        header_lines = [
            f"// AN5D generated kernel for stencil '{self.pattern.name}'",
            f"// {self.config.describe()}  star_opt={plan.use_star_opt} "
            f"associative_opt={plan.use_associative_opt}",
            "",
            generate_macro_definitions(plan),
            "",
        ]

        body = Block()
        for line in smem_declaration(plan, block_dims):
            body.add(Raw(line))
        body.extend(self._index_setup())
        body.extend(self._register_declarations())
        body.add(Raw("// ---- head phase (statically unrolled pipeline fill) ----"))
        body.extend(self._phase_statements(plan.head))
        body.add(Sync())
        body.add(Raw("// ---- inner phase (steady state, one rotation period per iteration) ----"))
        body.add(self._inner_loop())
        body.add(Sync())
        body.add(Raw("// ---- tail phase (pipeline drain) ----"))
        body.extend(self._tail())

        func = FuncDef(
            return_type="void",
            name=self.kernel_name,
            params=self._parameters(),
            body=body,
            qualifiers="__global__",
        )
        launch_bounds = ""
        if self.config.register_limit is not None:
            launch_bounds = (
                f"__launch_bounds__({self.config.nthr}) "
            )
        text = self.emitter.emit(func)
        if launch_bounds:
            text = text.replace("__global__ void", f"__global__ {launch_bounds}void", 1)
        return "\n".join(header_lines) + text + "\n"


def generate_kernel(plan: KernelPlan) -> str:
    """Generate the CUDA kernel source for a plan."""
    return KernelGenerator(plan).generate()
