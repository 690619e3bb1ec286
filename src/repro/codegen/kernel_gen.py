"""CUDA kernel generation (Section 4.3.2).

The kernel body mirrors Fig. 5: macro definitions, thread/block index setup,
register declarations for every sub-plane of every time step, then the three
streaming phases — a statically unrolled head, the rotation-period inner loop
and the statically unrolled tail with early exits.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.codegen.macros import generate_macro_definitions, smem_declaration
from repro.core.plan import KernelPlan, MacroCall

LOOP_VAR = "__an5d_h"


def cuda_names(plan: KernelPlan) -> Tuple[str, str]:
    """The kernel's and the host driver's function names."""
    stem = plan.pattern.name.replace("-", "_")
    return f"an5d_kernel_{stem}", f"an5d_host_{stem}"


def indent(lines: List[str]) -> List[str]:
    """``lines`` one block level deeper."""
    return ["  " + line for line in lines]


def _index_setup(plan: KernelPlan) -> List[str]:
    rad = plan.pattern.radius
    config = plan.config
    halo = config.bT * rad
    compute = config.compute_region(rad)
    lines = ["const int __an5d_tx = threadIdx.x;"]
    if plan.pattern.ndim == 2:
        lines.append(f"const int __an5d_gx = blockIdx.x * {compute[0]} + __an5d_tx - {halo};")
        conditions = [
            f"(__an5d_tx >= {halo} && __an5d_tx < {config.bS[0] - halo})",
            "(__an5d_gx >= 0 && __an5d_gx < __an5d_is1)",
        ]
    else:
        size_y, size_x = config.bS
        lines += [
            "const int __an5d_ty = threadIdx.y;",
            f"const int __an5d_gx = blockIdx.x * {compute[-1]} + __an5d_tx - {halo};",
            f"const int __an5d_gy = blockIdx.y * {compute[0]} + __an5d_ty - {halo};",
        ]
        conditions = [
            f"(__an5d_ty >= {halo} && __an5d_ty < {size_y - halo})",
            f"(__an5d_tx >= {halo} && __an5d_tx < {size_x - halo})",
            "(__an5d_gy >= 0 && __an5d_gy < __an5d_is1)",
            "(__an5d_gx >= 0 && __an5d_gx < __an5d_is2)",
        ]
    lines.append(f"const bool __an5d_in_compute_region = {' && '.join(conditions)};")
    return lines


class _CallPrinter:
    """Prints one kernel's macro calls from pieces built once.

    The scheduler shares one argument tuple per register-rotation table
    entry, so each tuple's joined text (and each CALC line) is built on its
    first call; the plane text is built once per (loop variable, plane).
    """

    def __init__(self) -> None:
        self._args: Dict[Tuple[str, ...], str] = {}
        self._calcs: Dict[Tuple[str, ...], str] = {}
        self._planes: Dict[Tuple[str, int, bool], str] = {}

    def _plane(self, call: MacroCall, loop_var: str) -> str:
        key = (loop_var, call.plane, call.plane_is_relative)
        text = self._planes.get(key)
        if text is None:
            plane = call.render_plane(loop_var)
            if call.plane_is_relative:
                plane = f"({plane})"
            text = self._planes[key] = f"__an5d_stream_begin + {plane}"
        return text

    def lines(self, calls: Tuple[MacroCall, ...], loop_var: str, synced: bool) -> List[str]:
        """One phase's macro calls; ``synced`` puts a barrier between time
        steps."""
        calcs, out = self._calcs, []
        previous = None
        for call in calls:
            kind, step, _, args, _ = call
            if synced and step != previous and previous is not None:
                out.append("__syncthreads();")
            previous = step
            if kind == "CALC":
                text = calcs.get(args)
                if text is None:
                    text = calcs[args] = f"CALC{step}({', '.join(args)});"
            elif kind == "LOAD":
                text = f"LOAD({args[0]}, {self._plane(call, loop_var)});"
            else:
                joined = self._args.get(args)
                if joined is None:
                    joined = self._args[args] = ", ".join(args)
                text = f"STORE({self._plane(call, loop_var)}, {joined});"
            out.append(text)
        return out


def generate_kernel(plan: KernelPlan) -> str:
    """Generate the CUDA kernel source for a plan."""
    pattern = plan.pattern
    config = plan.config
    dtype = pattern.dtype
    head_loads = [call.kind for call in plan.head.calls].count("LOAD")
    step = plan.inner.loop_step
    printer = _CallPrinter()
    registers = ", ".join(
        f"reg_{time_step}_{slot}"
        for time_step in range(config.bT)
        for slot in range(2 * pattern.radius + 1)
    )
    body = [
        *smem_declaration(plan),
        *_index_setup(plan),
        f"{dtype} {registers};",
        "// ---- head phase (statically unrolled pipeline fill) ----",
        *printer.lines(plan.head.calls, LOOP_VAR, True),
        "__syncthreads();",
        "// ---- inner phase (steady state, one rotation period per iteration) ----",
        f"for (int {LOOP_VAR} = {head_loads}; "
        f"{LOOP_VAR} <= __an5d_stream_end - __an5d_stream_begin - {step}; "
        f"{LOOP_VAR} += {step}) {{",
        *indent(printer.lines(plan.inner.calls, LOOP_VAR, True)),
        "}",
        "__syncthreads();",
        "// ---- tail phase (pipeline drain) ----",
        f"int {LOOP_VAR}_tail = __an5d_stream_end - __an5d_stream_begin;",
        *printer.lines(plan.tail.calls, f"{LOOP_VAR}_tail", False),
        "return;",
    ]
    params = ", ".join([
        f"const {dtype} *__restrict__ __an5d_in",
        f"{dtype} *__restrict__ __an5d_out",
        *(f"int __an5d_is{d}" for d in range(pattern.ndim)),
        "int __an5d_stream_begin",
        "int __an5d_stream_end",
    ])
    launch_bounds = (
        f"__launch_bounds__({config.nthr}) " if config.register_limit is not None else ""
    )
    lines = [
        f"// AN5D generated kernel for stencil '{pattern.name}'",
        f"// {config.describe()}  star_opt={plan.use_star_opt} "
        f"associative_opt={plan.use_associative_opt}",
        "",
        generate_macro_definitions(plan),
        f"__global__ {launch_bounds}void {cuda_names(plan)[0]}({params}) {{",
        *indent(body),
        "}",
    ]
    return "\n".join(lines) + "\n"
