"""Compiled evaluation of stencil expressions.

The interpreters in :mod:`repro.stencils.reference` and
:mod:`repro.sim.executor` re-walk the expression tree for every evaluated
region, paying a Python dispatch per node and allocating a fresh temporary
array per operation.  This module lowers a :class:`StencilPattern` expression
*once* into a single Python function — generated as source text and passed
through :func:`compile` — whose body is a flat sequence of NumPy ufunc calls
with ``out=`` targets, so a whole region update runs with

* zero per-node Python dispatch (one generated function call per region),
* zero per-node temporaries (a small pool of reusable scratch buffers sized
  by a register-allocation pass over the tree),
* shifted *views* of the source array instead of copies for every grid read.

Constants are folded at compile time using dtype-typed NumPy scalars, which
keeps the compiled kernel bit-identical to the interpreter (both perform the
exact same sequence of dtype-homogeneous ufunc operations).

On hosts with a C toolchain a second, *native* backend goes further: the same
expression is lowered to a single-pass C loop nest, built with ``cc -O3
-ffp-contract=off`` (no fast-math, no FMA contraction, so every operation
rounds exactly like the matching NumPy ufunc) and loaded through ``ctypes``.
One pass over the region replaces the engine's 10-30 elementwise passes,
which is worth another ~5x on top of the fused NumPy engine.  The native
backend is an accelerator only — results are bit-identical across all three
engines, and hosts without a compiler silently use the NumPy engine.

Kernels share one call convention::

    kernel(src, region, out)

``region`` is a tuple of slices selecting the *target* cells inside ``src``;
a grid read at offset ``o`` becomes the view ``src[..., region shifted by
o]``.  ``out`` receives the result and must not alias ``src``.  ``src`` and
``out`` may carry leading axes (the blocked executor stacks tiles along one)
and any memory order; the NumPy engine lays its scratch out like ``out`` and
the native engine runs its loop nest with the contiguous axis innermost, so
all engines stay bit-identical on such views.  Compiled kernels are
cached per ``(pattern, dtype, mode)``; an interpreter-backed kernel with the
same interface is the oracle the others are checked against (requested
with ``mode="interpreter"``, e.g. by the equivalence tests and the fuzzer).
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.ir.expr import BinOp, Call, Const, Expr, GridRead, UnaryOp, fold, walk
from repro.ir.stencil import StencilPattern

_NUMPY_DTYPES = {"float": np.float32, "double": np.float64}

#: Ufuncs of the operators and calls; the generated source names them as
#: ``np.<ufunc.__name__>``, and constant folding applies them to scalars.
_BINOP_NUMPY: Dict[str, Callable] = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
}

_CALL_NUMPY: Dict[str, Callable] = {
    "sqrt": np.sqrt,
    "sqrtf": np.sqrt,
    "fabs": np.abs,
    "fabsf": np.abs,
    "exp": np.exp,
    "expf": np.exp,
    "min": np.minimum,
    "max": np.maximum,
    "fmin": np.minimum,
    "fmax": np.maximum,
}

Region = Tuple[slice, ...]

#: Caps for the kernel-layer caches: a long-lived process compiling kernels
#: for many transient patterns (or region shapes) must not grow memory
#: monotonically.  Hitting a cap drops the whole cache — correctness is
#: unaffected, the next call just rebuilds.
_KERNEL_CACHE_MAX = 1024
_SCRATCH_SHAPES_MAX = 256


class CompileError(ValueError):
    """Raised when an expression cannot be lowered to a fused kernel."""


def numpy_dtype(dtype: str) -> type:
    try:
        return _NUMPY_DTYPES[dtype]
    except KeyError:
        raise CompileError(f"unsupported dtype {dtype!r}") from None


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _CodeGen:
    """Lowers one expression tree to flat three-address NumPy source.

    Grid reads become shifted views, arithmetic becomes ufunc calls writing
    into scratch buffers handed out by a free-list (so the buffer count is
    the tree's peak number of live array temporaries, not its node count).
    """

    def __init__(self, ndim: int, np_dtype: type) -> None:
        self.ndim = ndim
        self.np_dtype = np_dtype
        self.lines: List[str] = []
        self.consts: List[object] = []
        self.const_names: Dict[object, str] = {}
        self.num_buffers = 0
        self._free: List[int] = []

    # -- scratch buffer free-list -------------------------------------------
    def _alloc(self) -> int:
        if self._free:
            return self._free.pop()
        index = self.num_buffers
        self.num_buffers += 1
        return index

    def _release(self, buffer: Optional[int]) -> None:
        if buffer is not None:
            self._free.append(buffer)

    # -- terms ---------------------------------------------------------------
    def _const_term(self, value) -> str:
        key = repr(value)
        name = self.const_names.get(key)
        if name is None:
            name = f"c{len(self.consts)}"
            self.consts.append(value)
            self.const_names[key] = name
        return name

    def _view_term(self, offset: Tuple[int, ...]) -> str:
        if len(offset) != self.ndim:
            raise CompileError(f"grid read {offset} does not match ndim {self.ndim}")
        parts = []
        for dim, off in enumerate(offset):
            lo = f"s{dim}{off:+d}" if off else f"s{dim}"
            hi = f"e{dim}{off:+d}" if off else f"e{dim}"
            parts.append(f"{lo}:{hi}")
        return f"src[..., {', '.join(parts)}]"

    # -- lowering ------------------------------------------------------------
    def emit(self, expr: Expr, root_out: Optional[str] = None):
        """Lower ``expr``; returns ``(term, scalar_value, buffer_index)``.

        ``scalar_value`` is the folded NumPy scalar when the subtree is
        constant (``term`` then names the registered constant), otherwise
        ``None``.  ``buffer_index`` identifies a scratch buffer owned by the
        result, or ``None`` for views/constants.  When ``root_out`` is given
        the result is stored there instead of a scratch buffer.

        Lowering runs bottom-up through :func:`~repro.ir.expr.fold`, so
        sums of thousands of terms need no recursion.
        """
        return fold(
            expr,
            lambda node, operands: self._lower(node, operands, root_out if node is expr else None),
        )

    def _lower(self, expr: Expr, operands: List[tuple], root_out: Optional[str]):
        """Lower one node whose children are already lowered to ``operands``."""
        if isinstance(expr, Const):
            value = self.np_dtype(expr.value)
            if root_out is not None:
                self.lines.append(f"{root_out}[...] = {self._const_term(value)}")
                return root_out, None, None
            return self._const_term(value), value, None

        if isinstance(expr, GridRead):
            term = self._view_term(expr.offset)
            if root_out is not None:
                self.lines.append(f"np.copyto({root_out}, {term})")
                return root_out, None, None
            return term, None, None

        if isinstance(expr, BinOp):
            (lhs_term, lhs_val, lhs_buf), (rhs_term, rhs_val, rhs_buf) = operands
            if lhs_val is not None and rhs_val is not None:
                return self._fold_binop(expr.op, lhs_val, rhs_val, root_out)
            ufunc = _BINOP_NUMPY[expr.op].__name__
            return self._emit_op(f"np.{ufunc}({lhs_term}, {rhs_term}", (lhs_buf, rhs_buf), root_out)

        if isinstance(expr, UnaryOp):
            ((term, value, buffer),) = operands
            if value is not None:
                return self._fold_scalar(-value, root_out)
            return self._emit_op(f"np.negative({term}", (buffer,), root_out)

        if isinstance(expr, Call):
            ufunc = _CALL_NUMPY[expr.name]  # Call checked the name and arity
            if all(value is not None for _, value, _ in operands):
                folded = ufunc(*[value for _, value, _ in operands])
                return self._fold_scalar(self.np_dtype(folded), root_out)
            terms = ", ".join(term for term, _, _ in operands)
            buffers = tuple(buffer for _, _, buffer in operands)
            return self._emit_op(f"np.{ufunc.__name__}({terms}", buffers, root_out)

        raise CompileError(f"unknown expression node {expr!r}")

    def _fold_binop(self, op: str, lhs, rhs, root_out: Optional[str]):
        with np.errstate(all="ignore"):
            value = _BINOP_NUMPY[op](lhs, rhs)
        return self._fold_scalar(self.np_dtype(value), root_out)

    def _fold_scalar(self, value, root_out: Optional[str]):
        if root_out is not None:
            self.lines.append(f"{root_out}[...] = {self._const_term(value)}")
            return root_out, None, None
        return self._const_term(value), value, None

    def _emit_op(self, call_prefix: str, operand_buffers: Tuple[Optional[int], ...], root_out):
        if root_out is not None:
            self.lines.append(f"{call_prefix}, out={root_out})")
            for buffer in operand_buffers:
                self._release(buffer)
            return root_out, None, None
        # Reuse an operand's scratch buffer in place when one is available
        # (elementwise ufuncs permit out aliasing an input).
        target = next((b for b in operand_buffers if b is not None), None)
        if target is None:
            target = self._alloc()
        for buffer in operand_buffers:
            if buffer is not None and buffer != target:
                self._release(buffer)
        term = f"t{target}"
        self.lines.append(f"{call_prefix}, out={term})")
        return term, None, target


def generate_kernel_source(pattern: StencilPattern, np_dtype: type) -> Tuple[str, List[object], int]:
    """Generate the fused kernel's Python source for ``pattern``.

    Returns ``(source, constants, num_scratch_buffers)``.
    """
    gen = _CodeGen(pattern.ndim, np_dtype)
    gen.emit(pattern.expr, root_out="out")
    header = ["def _stencil_kernel(src, region, out, scratch):"]
    for dim in range(pattern.ndim):
        header.append(f"    s{dim} = region[{dim}].start; e{dim} = region[{dim}].stop")
    for index in range(gen.num_buffers):
        header.append(f"    t{index} = scratch[{index}]")
    body = [f"    {line}" for line in gen.lines]
    return "\n".join(header + body) + "\n", gen.consts, gen.num_buffers


# ---------------------------------------------------------------------------
# Kernel objects
# ---------------------------------------------------------------------------


class CompiledKernel:
    """A fused, scratch-reusing region evaluator for one (pattern, dtype)."""

    mode = "compiled"

    def __init__(self, pattern: StencilPattern, dtype: str) -> None:
        self.pattern = pattern
        self.dtype = dtype
        self.np_dtype = numpy_dtype(dtype)
        source, consts, num_scratch = generate_kernel_source(pattern, self.np_dtype)
        self.source = source
        self.num_scratch = num_scratch
        namespace: Dict[str, object] = {"np": np}
        namespace.update({f"c{i}": value for i, value in enumerate(consts)})
        code = compile(source, f"<stencil-kernel:{pattern.name}:{dtype}>", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own generated source
        self._fn = namespace["_stencil_kernel"]
        # Scratch buffers are keyed by the shape and stride order of ``out``
        # and reused across calls (across tiles, time steps and launches).
        self._scratch: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[np.ndarray]] = {}

    def scratch_for(self, out: np.ndarray) -> List[np.ndarray]:
        """Scratch buffers shaped like ``out`` and laid out in its memory
        order, so every ufunc of the kernel sweeps memory the same way."""
        strides = out.strides
        key = (out.shape, tuple(sorted(range(out.ndim), key=strides.__getitem__)))
        buffers = self._scratch.get(key)
        if buffers is None:
            buffers = [np.empty_like(out, dtype=self.np_dtype) for _ in range(self.num_scratch)]
            if len(self._scratch) >= _SCRATCH_SHAPES_MAX:
                self._scratch.clear()
            self._scratch[key] = buffers
        return buffers

    def __call__(self, src: np.ndarray, region: Region, out: np.ndarray) -> np.ndarray:
        self._fn(src, region, out, self.scratch_for(out))
        return out


class InterpretedKernel:
    """Tree-walking oracle with the same call convention as CompiledKernel."""

    mode = "interpreter"
    num_scratch = 0

    def __init__(self, pattern: StencilPattern, dtype: str) -> None:
        self.pattern = pattern
        self.dtype = dtype
        self.np_dtype = numpy_dtype(dtype)
        self.source = None

    def _eval(self, expr: Expr, src: np.ndarray, region: Region) -> np.ndarray:
        if isinstance(expr, Const):
            return np.asarray(expr.value, dtype=self.np_dtype)
        if isinstance(expr, GridRead):
            return src[(Ellipsis,) + tuple(
                slice(s.start + off, s.stop + off) for s, off in zip(region, expr.offset)
            )]
        if isinstance(expr, BinOp):
            lhs = self._eval(expr.lhs, src, region)
            rhs = self._eval(expr.rhs, src, region)
            return _BINOP_NUMPY[expr.op](lhs, rhs)
        if isinstance(expr, UnaryOp):
            return -self._eval(expr.operand, src, region)
        if isinstance(expr, Call):
            args = [self._eval(a, src, region) for a in expr.args]
            return _CALL_NUMPY[expr.name](*args)
        raise TypeError(f"unknown expression node {expr!r}")

    def __call__(self, src: np.ndarray, region: Region, out: np.ndarray) -> np.ndarray:
        out[...] = self._eval(self.pattern.expr, src, region)
        return out


# ---------------------------------------------------------------------------
# Native (C) backend
# ---------------------------------------------------------------------------

#: Calls whose C library implementation is bit-identical to the NumPy ufunc
#: (sqrt is correctly rounded by IEEE 754; fabs is a sign-bit operation).
#: exp/min/max are excluded — libm's exp differs from NumPy's SIMD exp in the
#: last ulp, and fmin/fmax disagree with np.minimum/np.maximum on NaNs.
_NATIVE_SAFE_CALLS = {"sqrt", "sqrtf", "fabs", "fabsf"}

_C_TYPES = {"float": "float", "double": "double"}

_NATIVE_BUILD_DIR: Optional[str] = None
_NATIVE_COMPILER: Optional[str] = ""  # "" = not probed yet, None = unavailable
_NATIVE_COUNTER = 0

#: Built C entry points shared by generated source text: structurally equal
#: patterns generate identical source, so each distinct kernel is compiled by
#: the toolchain at most once per process.
_NATIVE_FN_CACHE: Dict[Tuple[str, int], object] = {}


def _native_compiler() -> Optional[str]:
    """The C compiler to use for native kernels, or None when unavailable."""
    global _NATIVE_COMPILER
    if os.environ.get("REPRO_NO_NATIVE", "0") == "1":
        return None
    if _NATIVE_COMPILER == "":
        _NATIVE_COMPILER = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    return _NATIVE_COMPILER


def _native_build_dir() -> str:
    global _NATIVE_BUILD_DIR
    if _NATIVE_BUILD_DIR is None:
        _NATIVE_BUILD_DIR = tempfile.mkdtemp(prefix="repro_native_kernels_")
        atexit.register(shutil.rmtree, _NATIVE_BUILD_DIR, ignore_errors=True)
    return _NATIVE_BUILD_DIR


def native_supported(pattern: StencilPattern) -> bool:
    """Whether the native backend can reproduce the NumPy engine bit-exactly."""
    if pattern.dtype not in _C_TYPES:
        return False
    for node in walk(pattern.expr):
        if isinstance(node, Call) and node.name not in _NATIVE_SAFE_CALLS:
            return False
    return True


class _CExprGen:
    """Lowers the expression tree to a flat sequence of C assignments."""

    def __init__(self, np_dtype: type, ctype: str) -> None:
        self.np_dtype = np_dtype
        self.ctype = ctype
        self.suffix = "f" if ctype == "float" else ""
        self.reads: Dict[Tuple[int, ...], str] = {}
        self.lines: List[str] = []
        self._temps = 0

    def _literal(self, value) -> str:
        value = float(value)
        if value != value:
            return f"({self.ctype})NAN"
        if value in (float("inf"), float("-inf")):
            sign = "-" if value < 0 else ""
            return f"({sign}({self.ctype})INFINITY)"
        return value.hex() + self.suffix

    def _temp(self, rhs: str) -> str:
        name = f"v{self._temps}"
        self._temps += 1
        self.lines.append(f"const {self.ctype} {name} = {rhs};")
        return name

    def emit(self, expr: Expr):
        """Returns ``(term, scalar_value)``; scalar subtrees fold exactly as
        the NumPy engine does (same dtype-typed scalar arithmetic)."""
        if isinstance(expr, Const):
            value = self.np_dtype(expr.value)
            return self._literal(value), value
        if isinstance(expr, GridRead):
            name = self.reads.setdefault(expr.offset, f"r{len(self.reads)}")
            return f"{name}[k]", None
        if isinstance(expr, BinOp):
            lhs, lval = self.emit(expr.lhs)
            rhs, rval = self.emit(expr.rhs)
            if lval is not None and rval is not None:
                with np.errstate(all="ignore"):
                    folded = _BINOP_NUMPY[expr.op](lval, rval)
                value = self.np_dtype(folded)
                return self._literal(value), value
            return self._temp(f"{lhs} {expr.op} {rhs}"), None
        if isinstance(expr, UnaryOp):
            term, value = self.emit(expr.operand)
            if value is not None:
                value = self.np_dtype(-value)
                return self._literal(value), value
            return self._temp(f"-{term}"), None
        if isinstance(expr, Call):
            if expr.name not in _NATIVE_SAFE_CALLS or len(expr.args) != 1:
                raise CompileError(f"call {expr.name!r} not supported by the native backend")
            term, value = self.emit(expr.args[0])
            fn = "sqrt" if expr.name.startswith("sqrt") else "fabs"
            if value is not None:
                value = self.np_dtype(_CALL_NUMPY[expr.name](value))
                return self._literal(value), value
            return self._temp(f"{fn}{self.suffix}({term})"), None
        raise CompileError(f"unknown expression node {expr!r}")


def generate_native_source(
    pattern: StencilPattern, dtype: str, order: Optional[Tuple[int, ...]] = None
) -> str:
    """Generate the single-pass C translation unit for ``pattern``.

    The loop nest runs over ``n`` stacked regions (strides ``sn``/``on``
    between them), then over the pattern's dimensions in ``order`` (default:
    logical order).  The last dimension of ``order`` must be contiguous in
    both ``src`` and ``out`` (the wrapper checks this); per-read row pointers
    are hoisted so the inner loop is a plain stride-1 sweep the compiler can
    vectorize.
    """
    ctype = _C_TYPES[dtype]
    gen = _CExprGen(_NUMPY_DTYPES[dtype], ctype)
    result, value = gen.emit(pattern.expr)
    ndim = pattern.ndim
    order = tuple(range(ndim)) if order is None else order
    outer = ndim - 1

    params = ["const {0}* restrict src".format(ctype), "{0}* restrict out".format(ctype)]
    params += ["ptrdiff_t n", "ptrdiff_t sn", "ptrdiff_t on"]
    params += [f"ptrdiff_t s{d}" for d in range(outer)]
    params += [f"ptrdiff_t o{d}" for d in range(outer)]
    params += [f"ptrdiff_t l{d}, ptrdiff_t h{d}" for d in range(ndim)]

    lines = ["#include <math.h>", "#include <stddef.h>", ""]
    lines.append(f"void kern({', '.join(params)})")
    lines.append("{")
    lines.append("    for (ptrdiff_t g = 0; g < n; ++g) {")
    indent = "        "
    for d in range(outer):
        lines.append(f"{indent}for (ptrdiff_t i{d} = l{d}; i{d} < h{d}; ++i{d}) {{")
        indent += "    "
    for offset, name in gen.reads.items():
        terms = ["g*sn"] + [f"(i{d} + ({offset[order[d]]}))*s{d}" for d in range(outer)]
        terms.append(f"({offset[order[outer]]})")
        lines.append(f"{indent}const {ctype}* {name} = src + {' + '.join(terms)};")
    out_terms = ["g*on"] + [f"(i{d} - l{d})*o{d}" for d in range(outer)]
    out_terms.append(f"(-l{outer})")
    lines.append(f"{indent}{ctype}* orow = out + {' + '.join(out_terms)};")
    lines.append(f"{indent}for (ptrdiff_t k = l{outer}; k < h{outer}; ++k) {{")
    body_indent = indent + "    "
    for line in gen.lines:
        lines.append(body_indent + line)
    lines.append(f"{body_indent}orow[k] = {result};")
    for d in range(outer + 2):
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    lines.append("}")
    return "\n".join(lines) + "\n"


class NativeKernel:
    """A single-pass C kernel, built at first use with the host toolchain.

    A call whose arrays are contiguous along another axis than the last runs
    a build of the permuted loop nest; a call it cannot take goes to the
    NumPy engine and counts in ``fallback_calls``.
    """

    mode = "native"
    num_scratch = 0

    def __init__(self, pattern: StencilPattern, dtype: str) -> None:
        compiler = _native_compiler()
        if compiler is None:
            raise CompileError("no C compiler available for the native backend")
        if not native_supported(pattern):
            raise CompileError(
                f"pattern {pattern.name!r} uses operations the native backend cannot "
                "reproduce bit-exactly"
            )
        self.pattern = pattern
        self.dtype = dtype
        self.np_dtype = numpy_dtype(dtype)
        self.itemsize = np.dtype(self.np_dtype).itemsize
        self.ndim = pattern.ndim
        self._compiler = compiler
        self.source = generate_native_source(pattern, dtype)
        self._fns: Dict[Tuple[int, ...], object] = {}
        self._fn_for(tuple(range(self.ndim)), self.source)  # build now
        self._fallback: Optional[CompiledKernel] = None
        self.fallback_calls = 0

    def _fn_for(self, order: Tuple[int, ...], source: Optional[str] = None):
        """The entry point whose loop nest runs the dimensions in ``order``."""
        fn = self._fns.get(order)
        if fn is None:
            source = source or generate_native_source(self.pattern, self.dtype, order)
            fn = _NATIVE_FN_CACHE.get((source, self.ndim))
            if fn is None:
                fn = _NATIVE_FN_CACHE[(source, self.ndim)] = self._build(source)
            self._fns[order] = fn
        return fn

    def _build(self, source: str):
        global _NATIVE_COUNTER
        build_dir = _native_build_dir()
        stem = os.path.join(build_dir, f"kernel_{os.getpid()}_{_NATIVE_COUNTER}")
        _NATIVE_COUNTER += 1
        c_path, so_path = stem + ".c", stem + ".so"
        with open(c_path, "w") as handle:
            handle.write(source)
        flags = ["-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared"]
        base_cmd = [self._compiler] + flags
        for extra in (["-march=native"], []):
            result = subprocess.run(
                base_cmd + extra + ["-o", so_path, c_path],
                capture_output=True,
                text=True,
            )
            if result.returncode == 0:
                break
        else:
            raise CompileError(f"native kernel build failed: {result.stderr.strip()[:500]}")
        lib = ctypes.CDLL(so_path)
        fn = lib.kern
        fn.restype = None
        fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_ssize_t] * (
            3 + 2 * (self.ndim - 1) + 2 * self.ndim
        )
        return fn

    def __call__(self, src: np.ndarray, region: Region, out: np.ndarray) -> np.ndarray:
        itemsize, ndim = self.itemsize, self.ndim
        lead = src.ndim - ndim
        inner = None
        if (
            src.dtype == out.dtype == self.np_dtype
            and lead in (0, 1)
            and out.shape[:lead] == src.shape[:lead]
            and out.ndim == src.ndim
        ):
            # The innermost loop runs along an axis contiguous in both arrays.
            inner = next(
                (d for d in reversed(range(ndim))
                 if src.strides[lead + d] == itemsize == out.strides[lead + d]),
                None,
            )
        if inner is None:
            # Delegate to the NumPy engine rather than reinterpreting raw bits.
            self.fallback_calls += 1
            if self._fallback is None:
                self._fallback = CompiledKernel(self.pattern, self.dtype)
            return self._fallback(src, region, out)
        order = tuple(d for d in range(ndim) if d != inner) + (inner,)
        stack = (src.shape[0], src.strides[0] // itemsize, out.strides[0] // itemsize)
        args = [src.ctypes.data, out.ctypes.data, *(stack if lead else (1, 0, 0))]
        args += [src.strides[lead + d] // itemsize for d in order[:-1]]
        args += [out.strides[lead + d] // itemsize for d in order[:-1]]
        args += [bound for d in order for bound in (region[d].start, region[d].stop)]
        self._fn_for(order)(*args)
        return out


#: Elements a kernel must process before "auto" mode pays the toolchain cost
#: of a native build.  Small runs (unit tests, verification grids) stay on
#: the NumPy engine; sustained workloads promote and amortize the compile.
NATIVE_PROMOTION_ELEMENTS = 4_000_000


class AutoKernel:
    """Tiered kernel: fused NumPy engine first, native C once it pays off.

    All engines are bit-identical, so promotion mid-run is invisible except
    in throughput.
    """

    def __init__(self, pattern: StencilPattern, dtype: str) -> None:
        self.pattern = pattern
        self.dtype = dtype
        self._active = CompiledKernel(pattern, dtype)
        self._elements = 0
        self._can_promote = _native_compiler() is not None and native_supported(pattern)

    @property
    def mode(self) -> str:
        return f"auto:{self._active.mode}"

    @property
    def np_dtype(self) -> type:
        return self._active.np_dtype

    @property
    def source(self):
        return self._active.source

    def __call__(self, src: np.ndarray, region: Region, out: np.ndarray) -> np.ndarray:
        if self._can_promote:
            self._elements += out.size
            if self._elements >= NATIVE_PROMOTION_ELEMENTS:
                self._can_promote = False
                try:
                    self._active = NativeKernel(self.pattern, self.dtype)
                except CompileError:
                    pass
        return self._active(src, region, out)


StencilKernel = Callable[[np.ndarray, Region, np.ndarray], np.ndarray]

# Keyed by (pattern.cache_key, dtype, mode); kernels hold a strong reference
# to their pattern, so tokens can never be confused across pattern instances.
_KERNEL_CACHE: Dict[Tuple[int, str, str], StencilKernel] = {}


def compile_pattern(pattern: StencilPattern, mode: str = "auto") -> StencilKernel:
    """Build (or fetch from cache) the region kernel for ``pattern``.

    ``mode`` selects ``"native"`` (single-pass C kernel; raises
    :class:`CompileError` when no toolchain is available), ``"compiled"``
    (the fused NumPy engine; raise on failure), ``"interpreter"`` (the
    tree-walking oracle), or ``"auto"`` (tiered: the NumPy engine promotes
    itself to a native kernel once enough work has flowed through; honours
    ``REPRO_NO_NATIVE=1``).  All engines produce bit-identical results.
    """
    dtype = pattern.dtype
    if mode not in ("auto", "native", "compiled", "interpreter"):
        raise ValueError(f"unknown kernel mode {mode!r}")
    key = (pattern.cache_key, dtype, mode)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is not None:
        return kernel
    if mode == "interpreter":
        kernel = InterpretedKernel(pattern, dtype)
    elif mode == "compiled":
        kernel = CompiledKernel(pattern, dtype)
    elif mode == "native":
        kernel = NativeKernel(pattern, dtype)
    else:
        kernel = AutoKernel(pattern, dtype)
    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.clear()
    _KERNEL_CACHE[key] = kernel
    return kernel


def clear_kernel_cache() -> None:
    """Drop all cached kernels (and with them their scratch buffers)."""
    _KERNEL_CACHE.clear()
