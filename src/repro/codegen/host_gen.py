"""CUDA host code generation (Section 4.3.1).

The host side allocates the double-buffered device arrays, copies the input,
and calls the kernel once per ``bT`` combined time steps.  Because ``I_T`` is
a run-time value, the remainder ``I_T mod bT`` gets statically generated
conditional branches, one per residual step count.  Each branch launches the
same full-``bT`` kernel as a full block: the kernel has no step-count
parameter, so the branches do not yet shorten the last block as their
comment says.
"""

from __future__ import annotations

from typing import List

from repro.codegen.kernel_gen import cuda_names, indent
from repro.core.plan import KernelPlan


def _advance(plan: KernelPlan, steps: int) -> List[str]:
    """Launch the kernel for ``steps`` combined time steps, then swap buffers."""
    config = plan.config
    ndim = plan.pattern.ndim
    sizes = ", ".join(f"__an5d_is{d}" for d in range(ndim))
    bounds = "0, __an5d_is0" if config.hS is None else "__an5d_hs_begin, __an5d_hs_end"
    call = (
        f"{cuda_names(plan)[0]}<<<__an5d_grid, __an5d_block>>>"
        f"(__an5d_buf0, __an5d_buf1, {sizes}, {bounds});"
    )
    if config.hS is None:
        lines = [f"// advance {steps} combined time step(s)", call]
    else:
        lines = [
            f"// advance {steps} combined time step(s), "
            f"streaming dimension divided into blocks of {config.hS}",
            "for (int __an5d_hs_begin = 0; __an5d_hs_begin < __an5d_is0; "
            f"__an5d_hs_begin += {config.hS}) {{",
            *indent([
                f"int __an5d_hs_end = min(__an5d_hs_begin + {config.hS}, __an5d_is0);",
                call,
            ]),
            "}",
        ]
    return lines + [
        f"{plan.pattern.dtype} *__an5d_tmp = __an5d_buf0; "
        "__an5d_buf0 = __an5d_buf1; __an5d_buf1 = __an5d_tmp;",
        f"__an5d_t += {steps};",
    ]


def generate_host(plan: KernelPlan) -> str:
    """Generate the CUDA host driver source for a plan."""
    config = plan.config
    pattern = plan.pattern
    bT = config.bT
    compute = config.compute_region(pattern.radius)
    if pattern.ndim == 2:
        grid = f"dim3((__an5d_is1 + {compute[0]} - 1) / {compute[0]})"
        block = f"dim3({config.bS[0]})"
    else:
        grid = (
            f"dim3((__an5d_is2 + {compute[1]} - 1) / {compute[1]}, "
            f"(__an5d_is1 + {compute[0]} - 1) / {compute[0]})"
        )
        block = f"dim3({config.bS[1]}, {config.bS[0]})"
    params = ", ".join([
        f"{pattern.dtype} *__an5d_buf0",
        f"{pattern.dtype} *__an5d_buf1",
        *(f"int __an5d_is{d}" for d in range(pattern.ndim)),
        "int __an5d_it",
    ])
    body = [
        f"const dim3 __an5d_grid = {grid};",
        f"const dim3 __an5d_block = {block};",
        "int __an5d_t = 0;",
        f"// Full blocks of bT = {bT} combined time steps.",
        f"int __an5d_full_blocks = __an5d_it / {bT};",
        f"int __an5d_remainder = __an5d_it % {bT};",
        "// Keep the final result in the buffer the original '% 2' loop",
        "// would have used: shorten the last block when the remainder or the",
        "// launch-count parity requires it (Section 4.3.1).",
        "for (int __an5d_b = 0; __an5d_b < __an5d_full_blocks; __an5d_b++) {",
        *indent(_advance(plan, bT)),
        "}",
    ]
    for residual in range(1, bT):
        body += [
            f"if (__an5d_remainder == {residual}) {{",
            *indent(_advance(plan, residual)),
            "}",
        ]
    body.append("(void)__an5d_t;")
    lines = [
        f"// AN5D generated host code for stencil '{pattern.name}'",
        f"// configuration: {config.describe()}",
        f"void {cuda_names(plan)[1]}({params}) {{",
        *indent(body),
        "}",
    ]
    return "\n".join(lines) + "\n"
