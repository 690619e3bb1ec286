"""LOAD / CALC / STORE macro generation (Section 4.3.2, Fig. 5).

Every generated kernel is a sequence of macro calls; the macros themselves
encode where each operand lives:

* the thread's own column of the source sub-planes lives in the fixed
  registers passed as macro arguments,
* neighbouring columns are read from the double-buffered shared memory
  through a wrapper device function (``__an5d_sm_load``) that prevents NVCC
  from vectorizing the access (Section 4.3.2),
* loads/stores address global memory through the streaming index argument.

For diagonal-access-free (star) stencils the shared-memory buffers hold a
single sub-plane; for other stencils they hold ``1 + 2*rad`` sub-planes.
Associative stencils therefore get ``1 + 2*rad`` planes too, although
:func:`repro.core.shared_memory.an5d_shared_memory_plan` prices one (the
§4.1 partial-summation schedule of :mod:`repro.core.associative`, which
this module does not emit yet).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.core.plan import KernelPlan
from repro.ir.expr import BinOp, Call, Const, Expr, GridRead, UnaryOp
from repro.ir.stencil import StencilPattern


def _float_literal(value: float, dtype: str) -> str:
    """A finite ``double`` prints its shortest round-trip decimal; the rest 9 digits."""
    finite = math.isfinite(value)
    text = repr(float(value)) if dtype == "double" and finite else f"{value:.9g}"
    if "." not in text and "e" not in text and "inf" not in text and "nan" not in text:
        text += ".0"
    return text + ("f" if dtype == "float" else "")


def _thread_index(ndim: int, offsets: Sequence[int]) -> str:
    """Shared-memory subscript for the blocked dimensions of an offset."""
    if ndim == 2:
        (dx,) = offsets
        return f"[__an5d_tx + {dx}]" if dx else "[__an5d_tx]"
    dy, dx = offsets
    y = f"__an5d_ty + {dy}" if dy else "__an5d_ty"
    x = f"__an5d_tx + {dx}" if dx else "__an5d_tx"
    return f"[{y}][{x}]"


def render_expression(
    pattern: StencilPattern,
    expr: Expr,
    source_registers: Sequence[str],
    smem_buffer: str,
    multi_plane: bool,
) -> str:
    """Render a stencil expression with operands resolved to registers/smem.

    ``source_registers`` are the ``2*rad + 1`` register names of the previous
    time step in streaming order (offset ``-rad`` first).
    """
    rad = pattern.radius
    dtype = pattern.dtype

    def leaf(node: Expr) -> str:
        if isinstance(node, Const):
            return _float_literal(node.value, dtype)
        if isinstance(node, GridRead):
            stream_offset, *blocked = node.offset
            if all(component == 0 for component in blocked):
                return f"({source_registers[stream_offset + rad]})"
            plane = f"[{stream_offset + rad}]" if multi_plane else ""
            subscript = _thread_index(pattern.ndim, blocked)
            return f"__an5d_sm_load(&{smem_buffer}{plane}{subscript})"
        raise TypeError(f"cannot render expression node {node!r}")

    # Emit tokens left to right from an explicit stack (strings are literal
    # text, expressions still to expand), so deep sums need no recursion.
    tokens: List[str] = []
    stack: List[object] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            tokens.append(node)
        elif isinstance(node, BinOp):
            stack += (")", node.rhs, f" {node.op} ", node.lhs, "(")
        elif isinstance(node, UnaryOp):
            stack += (")", node.operand, "(-")
        elif isinstance(node, Call):
            stack.append(")")
            for index in reversed(range(len(node.args))):
                stack.append(node.args[index])
                if index:
                    stack.append(", ")
            stack.append(f"{node.name}(")
        else:
            tokens.append(leaf(node))
    return "".join(tokens)


def _smem_plane_count(plan: KernelPlan) -> int:
    """Sub-planes per shared-memory buffer in the emitted code."""
    if plan.use_star_opt:
        return 1
    return 1 + 2 * plan.pattern.radius


def smem_declaration(plan: KernelPlan) -> List[str]:
    """Shared-memory buffer declarations (double buffered by default)."""
    planes = _smem_plane_count(plan)
    dims = "".join(f"[{d}]" for d in reversed(plan.config.bS))
    dims = (f"[{planes}]" if planes > 1 else "") + dims
    dtype = plan.pattern.dtype
    return [f"__shared__ {dtype} __an5d_sm{b}{dims};" for b in range(plan.smem_buffers)]


def generate_macro_definitions(plan: KernelPlan) -> str:
    """All ``#define`` lines of one kernel (LOAD, CALC1..CALCbT-1, STORE)."""
    pattern = plan.pattern
    dtype = pattern.dtype
    rad = pattern.radius
    period = 2 * rad + 1
    multi_plane = _smem_plane_count(plan) > 1
    ndim = pattern.ndim

    if ndim == 2:
        global_index = "[(__an5d_plane)][__an5d_gx]"
        smem_store_index = "[__an5d_tx]"
    else:
        global_index = "[(__an5d_plane)][__an5d_gy][__an5d_gx]"
        smem_store_index = "[__an5d_ty][__an5d_tx]"

    lines: List[str] = []
    lines.append(
        f"__device__ __forceinline__ {dtype} __an5d_sm_load(const {dtype} *p) {{ return *p; }}"
    )
    lines.append("")

    # LOAD: global memory -> register + shared memory (time step 0).
    lines.append(
        "#define LOAD(reg, __an5d_plane) do { \\\n"
        f"    (reg) = __an5d_in{global_index}; \\\n"
        f"    __an5d_sm0{'[' + str(rad) + ']' if multi_plane else ''}{smem_store_index} = (reg); \\\n"
        "  } while (0)"
    )

    source_args = ", ".join(f"s{k}" for k in range(period))
    source_registers = [f"(s{k})" for k in range(period)]
    # One body per shared-memory buffer read: the CALC/STORE macros share it.
    buffers = plan.smem_buffers
    bodies = [
        render_expression(pattern, pattern.expr, source_registers, f"__an5d_sm{b}", multi_plane)
        for b in range(min(plan.config.bT, buffers))
    ]
    for step in range(1, plan.config.bT):
        # With double buffering, time step T reads the buffer its predecessor
        # wrote and writes the other one (Section 4.2.2).
        body = bodies[(step - 1) % buffers]
        write_buffer = f"__an5d_sm{step % buffers}"
        plane_store = f"[{rad}]" if multi_plane else ""
        lines.append(
            f"#define CALC{step}(dst, {source_args}) do {{ \\\n"
            f"    {dtype} __an5d_res = {body}; \\\n"
            f"    {write_buffer}{plane_store}{smem_store_index} = __an5d_res; \\\n"
            "    (dst) = __an5d_res; \\\n"
            "  } while (0)"
        )

    # STORE: final combined time step writes the compute region only.
    final_body = bodies[(plan.config.bT - 1) % buffers]
    lines.append(
        f"#define STORE(__an5d_plane, {source_args}) do {{ \\\n"
        "    if (__an5d_in_compute_region) \\\n"
        f"      __an5d_out{global_index} = {final_body}; \\\n"
        "  } while (0)"
    )
    return "\n".join(lines)

