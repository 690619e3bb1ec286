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
engines, and hosts without a compiler (or with ``REPRO_NO_NATIVE=1``) use
the NumPy engine.

Builds outlive the process.  Each library is keyed by sha256 over its C
source, the compiler's resolved path and stat, the flags and the host, and
published atomically into :func:`native_cache_dir`, a 0700 directory per
user under ``tempfile.gettempdir()`` (so ``TMPDIR`` moves it); a later
process only loads it.  A library is loaded only from a directory this user
owns that nobody else may write, and only when its bytes match the digest
in its name; otherwise it is rebuilt, or built in a private per-process
directory.

``mode="auto"`` picks one engine per check, before it runs: the caller
passes the cell updates it is about to run, and native is chosen when that
work, repeated over :data:`NATIVE_AMORTISED_RUNS` runs, saves more than the
build costs (both models are fitted below, next to their constants).

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
import contextlib
import ctypes
import os
import platform
import shutil
import stat
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

    def __init__(self, np_dtype: type) -> None:
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
        constant (``term`` is then ``None``: a constant gets a name only
        where generated code uses it), otherwise ``None``.
        ``buffer_index`` identifies a scratch buffer owned by the
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
            return None, self.np_dtype(expr.value), None

        if isinstance(expr, GridRead):
            term = self._view_term(expr.offset)
            if root_out is not None:
                self.lines.append(f"np.copyto({root_out}, {term})")
                return root_out, None, None
            return term, None, None

        if isinstance(expr, BinOp):
            (lhs_term, lhs_val, lhs_buf), (rhs_term, rhs_val, rhs_buf) = operands
            if lhs_val is not None and rhs_val is not None:
                with np.errstate(all="ignore"):
                    value = _BINOP_NUMPY[expr.op](lhs_val, rhs_val)
                return None, self.np_dtype(value), None
            ufunc = _BINOP_NUMPY[expr.op].__name__
            terms = ", ".join(self._term(operand) for operand in operands)
            return self._emit_op(f"np.{ufunc}({terms}", (lhs_buf, rhs_buf), root_out)

        if isinstance(expr, UnaryOp):
            ((term, value, buffer),) = operands
            if value is not None:
                return None, -value, None
            return self._emit_op(f"np.negative({term}", (buffer,), root_out)

        if isinstance(expr, Call):
            ufunc = _CALL_NUMPY[expr.name]  # Call checked the name and arity
            if all(value is not None for _, value, _ in operands):
                folded = ufunc(*[value for _, value, _ in operands])
                return None, self.np_dtype(folded), None
            terms = ", ".join(self._term(operand) for operand in operands)
            buffers = tuple(buffer for _, _, buffer in operands)
            return self._emit_op(f"np.{ufunc.__name__}({terms}", buffers, root_out)

        raise CompileError(f"unknown expression node {expr!r}")

    def _term(self, operand: tuple) -> str:
        """The source term of a lowered operand, naming its constant if any."""
        term, value, _ = operand
        return term if value is None else self._const_term(value)

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
    gen = _CodeGen(np_dtype)
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

    def _eval(self, src: np.ndarray, region: Region) -> np.ndarray:
        """Evaluate the pattern node by node, bottom-up through
        :func:`~repro.ir.expr.fold`, so deep sums need no recursion."""

        def combine(expr: Expr, args: List[np.ndarray]) -> np.ndarray:
            if isinstance(expr, Const):
                return np.asarray(expr.value, dtype=self.np_dtype)
            if isinstance(expr, GridRead):
                return src[(Ellipsis,) + tuple(
                    slice(s.start + off, s.stop + off) for s, off in zip(region, expr.offset)
                )]
            if isinstance(expr, BinOp):
                return _BINOP_NUMPY[expr.op](*args)
            if isinstance(expr, UnaryOp):
                return -args[0]
            if isinstance(expr, Call):
                return _CALL_NUMPY[expr.name](*args)
            raise TypeError(f"unknown expression node {expr!r}")

        return fold(self.pattern.expr, combine)

    def __call__(self, src: np.ndarray, region: Region, out: np.ndarray) -> np.ndarray:
        out[...] = self._eval(src, region)
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

#: Flags of every native build: no fast-math and no FMA contraction, so each
#: operation rounds like its NumPy ufunc.  ``-march=native`` is tried first.
_NATIVE_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

_NATIVE_COMPILER: Optional[str] = ""  # "" = not probed yet, None = unavailable

#: Entry points by build key (or the message of the build that failed):
#: structurally equal patterns generate identical source, so each distinct
#: kernel is loaded, or tried, at most once per process.
_NATIVE_FN_CACHE: Dict[str, object] = {}

#: Per-process build directory, used when the shared one is not private.
_FALLBACK_DIR: Optional[str] = None


def _native_compiler() -> Optional[str]:
    """The C compiler to use for native kernels, or None when unavailable."""
    global _NATIVE_COMPILER
    if os.environ.get("REPRO_NO_NATIVE", "0") == "1":
        return None
    if _NATIVE_COMPILER == "":
        _NATIVE_COMPILER = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    return _NATIVE_COMPILER


def native_cache_dir() -> str:
    """The directory where built kernels outlive the process: one per user
    under the temp directory (``TMPDIR``)."""
    return os.path.join(tempfile.gettempdir(), f"repro-native-kernels-{os.getuid()}")


def _is_private(path: str, kind: int) -> bool:
    """Whether ``path`` is a ``kind`` (``stat.S_IFDIR``/``S_IFREG``, never a
    symlink) owned by this user that no group or other user may write."""
    try:
        info = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_IFMT(info.st_mode) == kind
        and info.st_uid == os.getuid()
        and not info.st_mode & 0o022
    )


def _kernel_dir() -> str:
    """:func:`native_cache_dir`, created 0700 if missing; a per-process
    directory instead when the shared one is not this user's alone."""
    global _FALLBACK_DIR
    path = native_cache_dir()
    with contextlib.suppress(OSError):
        os.mkdir(path, 0o700)
    if _is_private(path, stat.S_IFDIR):
        return path
    if _FALLBACK_DIR is None:
        _FALLBACK_DIR = tempfile.mkdtemp(prefix="repro-native-kernels-")
        atexit.register(shutil.rmtree, _FALLBACK_DIR, ignore_errors=True)
    return _FALLBACK_DIR


def _build_key(compiler: str, source: str) -> str:
    """sha256 over the source, the compiler's resolved path and stat, the
    flags and the host: whatever changes the built library changes the key."""
    import hashlib  # native path only: it loads OpenSSL

    real = os.path.realpath(compiler)
    info = os.stat(real)
    toolchain = (real, info.st_size, info.st_mtime_ns, _NATIVE_FLAGS, tuple(platform.uname()))
    return hashlib.sha256(f"{toolchain!r}\0{source}".encode()).hexdigest()


def _sha256_file(path: str) -> str:
    import hashlib

    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _cached_library(directory: str, key: str) -> Optional[str]:
    """A published library of ``key`` whose bytes match the digest in its
    name (``<key>.<digest>.so``); one that does not (truncated) is removed."""
    for name in os.listdir(directory):
        if not (name.startswith(key + ".") and name.endswith(".so")):
            continue
        path = os.path.join(directory, name)
        if not _is_private(path, stat.S_IFREG):
            continue
        if name == f"{key}.{_sha256_file(path)[:16]}.so":
            return path
        with contextlib.suppress(OSError):
            os.unlink(path)
    return None


def _compile_library(compiler: str, directory: str, key: str, source: str) -> str:
    """Build ``source`` and publish it under ``key`` atomically (temp file,
    then ``os.replace``), so concurrent builders of one key all succeed."""
    fd, temp = tempfile.mkstemp(dir=directory, prefix=f".{key[:16]}-", suffix=".tmp")
    os.close(fd)
    try:
        for extra in (["-march=native"], []):
            result = subprocess.run(
                [compiler, *_NATIVE_FLAGS, *extra, "-x", "c", "-o", temp, "-"],
                input=source,
                capture_output=True,
                text=True,
            )
            if result.returncode == 0:
                break
        else:
            raise CompileError(f"native kernel build failed: {result.stderr.strip()[:500]}")
        os.chmod(temp, 0o700)
        path = os.path.join(directory, f"{key}.{_sha256_file(temp)[:16]}.so")
        os.replace(temp, path)
        return path
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def _entry_point(path: str, ndim: int):
    fn = ctypes.CDLL(path).kern
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_ssize_t] * (
        3 + 2 * (ndim - 1) + 2 * ndim
    )
    return fn


def _native_entry_point(compiler: str, source: str, ndim: int):
    """The entry point of ``source``: loaded in this process already, from
    the cache directory, or built there.  Raises :class:`CompileError` if it
    cannot be had (and remembers why)."""
    key = _build_key(compiler, source)
    fn = _NATIVE_FN_CACHE.get(key)
    if fn is None:
        directory = _kernel_dir()
        try:
            path = _cached_library(directory, key) or _compile_library(
                compiler, directory, key, source
            )
            fn = _entry_point(path, ndim)
        except CompileError as error:
            fn = str(error)
        except OSError as error:
            # An OSError (a full disk, no free descriptors, a cache directory
            # removed mid-build) fails this call only; the compiler's own
            # failure is remembered for the process.
            raise CompileError(f"native kernel build failed: {error}") from error
        _NATIVE_FN_CACHE[key] = fn
    if isinstance(fn, str):
        raise CompileError(fn)
    return fn


def native_supported(pattern: StencilPattern) -> bool:
    """Whether the native backend can reproduce the NumPy engine bit-exactly."""
    for node in walk(pattern.expr):
        if isinstance(node, Call) and node.name not in _NATIVE_SAFE_CALLS:
            return False
    return True


class _CExprGen:
    """Lowers the expression tree to a flat sequence of C assignments.

    ``statements`` holds one ``(temp, rhs, operand terms)`` per assignment,
    in evaluation order; :meth:`chunks` splits them where the loop body can
    be cut.
    """

    def __init__(self, np_dtype: type, ctype: str) -> None:
        self.np_dtype = np_dtype
        self.ctype = ctype
        self.suffix = "f" if ctype == "float" else ""
        self.reads: Dict[Tuple[int, ...], str] = {}
        self.statements: List[Tuple[str, str, Tuple[str, ...]]] = []

    def _literal(self, value) -> str:
        value = float(value)
        if value != value:
            return f"({self.ctype})NAN"
        if value in (float("inf"), float("-inf")):
            sign = "-" if value < 0 else ""
            return f"({sign}({self.ctype})INFINITY)"
        return value.hex() + self.suffix

    def _temp(self, rhs: str, *operands: str) -> str:
        name = f"v{len(self.statements)}"
        self.statements.append((name, rhs, operands))
        return name

    def emit(self, expr: Expr):
        """Returns ``(term, scalar_value)``; scalar subtrees fold exactly as
        the NumPy engine does (same dtype-typed scalar arithmetic).  Runs
        bottom-up through :func:`~repro.ir.expr.fold`, without recursion."""
        return fold(expr, self._lower)

    def _lower(self, expr: Expr, operands: List[tuple]):
        """Lower one node whose children are already lowered to ``operands``."""
        if isinstance(expr, Const):
            value = self.np_dtype(expr.value)
            return self._literal(value), value
        if isinstance(expr, GridRead):
            name = self.reads.setdefault(expr.offset, f"r{len(self.reads)}")
            return f"{name}[k]", None
        if isinstance(expr, BinOp):
            (lhs, lval), (rhs, rval) = operands
            if lval is not None and rval is not None:
                with np.errstate(all="ignore"):
                    folded = _BINOP_NUMPY[expr.op](lval, rval)
                value = self.np_dtype(folded)
                return self._literal(value), value
            return self._temp(f"{lhs} {expr.op} {rhs}", lhs, rhs), None
        if isinstance(expr, UnaryOp):
            ((term, value),) = operands
            if value is not None:
                value = self.np_dtype(-value)
                return self._literal(value), value
            return self._temp(f"-{term}", term), None
        if isinstance(expr, Call):
            if expr.name not in _NATIVE_SAFE_CALLS or len(expr.args) != 1:
                raise CompileError(f"call {expr.name!r} not supported by the native backend")
            ((term, value),) = operands
            fn = "sqrt" if expr.name.startswith("sqrt") else "fabs"
            if value is not None:
                value = self.np_dtype(_CALL_NUMPY[expr.name](value))
                return self._literal(value), value
            return self._temp(f"{fn}{self.suffix}({term})", term), None
        raise CompileError(f"unknown expression node {expr!r}")

    def chunks(self, result: str, size: int) -> List[Tuple[int, int, Optional[str]]]:
        """Split the statements into ``(start, stop, carried)`` runs of at
        most ``size`` where possible.  A run may end only where exactly one
        temporary is live (``carried``, handed to the next run through the
        output row); a run with no such cut within ``size`` statements
        extends to the next one."""
        last_use = {result: len(self.statements)}
        for index, (_, _, operands) in enumerate(self.statements):
            for term in operands:
                last_use[term] = index
        # cuts[i]: the one live temporary after statement i, if exactly one.
        cuts: Dict[int, str] = {}
        live: set = set()
        for index, (name, _, operands) in enumerate(self.statements[:-1]):
            live.difference_update(term for term in operands if last_use[term] == index)
            live.add(name)
            if len(live) == 1:
                cuts[index] = next(iter(live))
        runs: List[Tuple[int, int, Optional[str]]] = []
        start, carried = 0, None
        total = len(self.statements)
        while total - start > size:
            inside = [i for i in cuts if start <= i < start + size]
            beyond = [i for i in cuts if i >= start + size]
            if not inside and not beyond:
                break
            end = max(inside) if inside else min(beyond)
            runs.append((start, end + 1, carried))
            start, carried = end + 1, cuts[end]
        runs.append((start, total, carried))
        return runs


#: Statements per ``k`` loop of a native kernel.  gcc's RTL passes (the
#: combiner and register allocation, 98% of box3d3r's 4.8-s build) grow
#: faster than linearly with one loop body's statements and the row
#: pointers live across it, so a longer body is split into consecutive
#: loops over the same row, each reading back the one carried value from
#: ``orow[k]``.  One loop order on a 2-vCPU x86-64 host (gcc 12, -O3
#: -march=native), split at 64 / 128 / 256 / never: box3d3r built in 2.4 /
#: 2.8 / 3.5 / 4.8 s, box3d4r 5.7 / 5.3 / - / 33 s.  Verify-sized checks
#: ran within noise across 64-256 (box2d4r, box3d2r and box3d3r), and at
#: 128 no slower than the unsplit body in an interleaved A/B.  Bodies of
#: up to 128 statements (box2d3r has 97) keep their source and build key.
NATIVE_CHUNK_STATEMENTS = 128


def generate_native_source(
    pattern: StencilPattern, dtype: str, order: Optional[Tuple[int, ...]] = None
) -> str:
    """Generate the single-pass C translation unit for ``pattern``.

    The loop nest runs over ``n`` stacked regions (strides ``sn``/``on``
    between them), then over the pattern's dimensions in ``order`` (default:
    logical order).  The last dimension of ``order`` must be contiguous in
    both ``src`` and ``out`` (the wrapper checks this); per-read row pointers
    are hoisted so the inner loop is a plain stride-1 sweep the compiler can
    vectorize.  A body of more than :data:`NATIVE_CHUNK_STATEMENTS`
    statements runs as several such sweeps, each in its own block with the
    row pointers it reads.
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

    def row_pointers(reads, indent: str) -> None:
        for offset, name in reads:
            terms = ["g*sn"] + [f"(i{d} + ({offset[order[d]]}))*s{d}" for d in range(outer)]
            terms.append(f"({offset[order[outer]]})")
            lines.append(f"{indent}const {ctype}* {name} = src + {' + '.join(terms)};")

    def sweep(statements, stored: str, indent: str, carried: Optional[str]) -> None:
        lines.append(f"{indent}for (ptrdiff_t k = l{outer}; k < h{outer}; ++k) {{")
        if carried is not None:
            lines.append(f"{indent}    const {ctype} {carried} = orow[k];")
        for name, rhs, _ in statements:
            lines.append(f"{indent}    const {ctype} {name} = {rhs};")
        lines.append(f"{indent}    orow[k] = {stored};")

    out_terms = ["g*on"] + [f"(i{d} - l{d})*o{d}" for d in range(outer)]
    out_terms.append(f"(-l{outer})")
    runs = gen.chunks(result, NATIVE_CHUNK_STATEMENTS)
    if len(runs) == 1:
        row_pointers(gen.reads.items(), indent)
        lines.append(f"{indent}{ctype}* orow = out + {' + '.join(out_terms)};")
        sweep(gen.statements, result, indent, None)
    else:
        lines.append(f"{indent}{ctype}* orow = out + {' + '.join(out_terms)};")
        names = {f"{name}[k]": (offset, name) for offset, name in gen.reads.items()}
        for number, (start, stop, carried) in enumerate(runs):
            statements = gen.statements[start:stop]
            used = dict.fromkeys(
                names[term] for _, _, operands in statements for term in operands if term in names
            )
            stored = result if number == len(runs) - 1 else runs[number + 1][2]
            lines.append(f"{indent}{{")
            row_pointers(used, indent + "    ")
            sweep(statements, stored, indent + "    ", carried)
            lines.append(f"{indent}    }}")
            lines.append(f"{indent}}}")
    # The one-run body leaves its ``k`` loop open, as it always has, so
    # kernels that need no split keep their source and their build key.
    for d in range(outer + 1 + (len(runs) == 1)):
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def empty_stream_last(shape: Tuple[int, ...], ndim: int, np_dtype: type) -> np.ndarray:
    """An uninitialised array of logical ``shape`` (an ``ndim``-D grid, or a
    stack of them along leading axes) whose memory keeps the streaming
    dimension, the grid's first, innermost.  Both executors run their
    kernel on this layout, so a check runs one native loop order."""
    stream = len(shape) - ndim
    memory = shape[:stream] + shape[stream + 1:] + shape[stream:stream + 1]
    return np.moveaxis(np.empty(memory, np_dtype), -1, stream)


class NativeKernel:
    """A single-pass C kernel, built at first use with the host toolchain.

    The loop order of :func:`empty_stream_last` arrays is loaded or built
    when the kernel is made; a call whose arrays are contiguous along
    another axis runs a build of that permuted loop nest, made at its first
    use.  A call it cannot take goes to the NumPy engine and counts in
    ``fallback_calls``.
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
        self._fns: Dict[Tuple[int, ...], object] = {}
        self._fn_for(tuple(range(1, self.ndim)) + (0,))  # empty_stream_last's order
        self._fallback: Optional[CompiledKernel] = None
        self.fallback_calls = 0

    def _fn_for(self, order: Tuple[int, ...]):
        """The entry point whose loop nest runs the dimensions in ``order``."""
        fn = self._fns.get(order)
        if fn is None:
            source = generate_native_source(self.pattern, self.dtype, order)
            fn = self._fns[order] = _native_entry_point(self._compiler, source, self.ndim)
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


#: The "auto" engine model, fitted on a 2-vCPU x86-64 host (gcc 12, -O3
#: -march=native).  A check runs one loop order (both executors keep the
#: streaming axis innermost), and one build of it took star2d1r 0.14 s,
#: star3d4r 0.31 s, box2d4r 0.58 s, box3d2r 0.94 s, box3d3r 2.1 s and
#: box3d4r 4.3 s: about 130 ms + 6 ms x reads, where reads are the distinct
#: grid offsets (the body is split into NATIVE_CHUNK_STATEMENTS runs, so
#: the cost is linear).  The check's blocked run and its reference share
#: the kernel, and over both of their updates native saved 0.65-2.8 ns per
#: element-read at verify size (gradient2d's sqrt and division 4.3 ns;
#: 2-D floats save least); the model takes 0.6 ns.  Builds outlive the
#: process, so a build pays when the checks that reuse it save more than
#: it costs.  NATIVE_AMORTISED_RUNS is the reuse measured for the repeated
#: check, perfbench's verify-exec: a 25-s run checks every item 10 times
#: (one warm-up and 9 timed passes, 378 checks of 42 items), and comparing
#: two commits runs it 10 times per checkout against one cache.  At 100,
#: every verify-exec item runs native except star3d4r, which needs 169
#: checks to pay (star3d3r 96, box3d4r 93, box3d3r 48).  A caller whose
#: kernel runs once selects the engine itself: a fuzz job's stencil has its
#: own random coefficients, so its build would never be reused.
NATIVE_BUILD_S = 0.130
NATIVE_BUILD_S_PER_READ = 6e-3
NATIVE_SAVED_S_PER_ELEMENT_READ = 0.6e-9
NATIVE_AMORTISED_RUNS = 100


def _native_pays(pattern: StencilPattern, elements: int) -> bool:
    """Whether ``elements`` cell updates of ``pattern`` pay for a native build."""
    reads = len(pattern.offsets)
    build_s = NATIVE_BUILD_S + NATIVE_BUILD_S_PER_READ * reads
    saved_s = NATIVE_AMORTISED_RUNS * elements * reads * NATIVE_SAVED_S_PER_ELEMENT_READ
    return saved_s >= build_s and _native_compiler() is not None and native_supported(pattern)


def _auto_kernel(pattern: StencilPattern, dtype: str, elements: int, cached):
    """The "auto" engine of one check of ``elements`` cell updates.

    Native when it pays (:func:`_native_pays`) and builds, else the NumPy
    engine.  A ``cached`` native choice is kept; a cached NumPy one is kept
    unless this check pays for native.  The mode reads ``auto:<engine>``.
    """
    native = _native_pays(pattern, elements)
    if cached is not None and (cached.mode == "auto:native" or not native):
        return cached
    kernel = cached
    if native:
        try:
            kernel = NativeKernel(pattern, dtype)
            kernel.mode = "auto:native"
        except CompileError:
            pass  # the NumPy engine is bit-identical
    if kernel is None:
        kernel = CompiledKernel(pattern, dtype)
        kernel.mode = "auto:compiled"
    return kernel


StencilKernel = Callable[[np.ndarray, Region, np.ndarray], np.ndarray]

# Keyed by (pattern.cache_key, dtype, mode); kernels hold a strong reference
# to their pattern, so tokens can never be confused across pattern instances.
_KERNEL_CACHE: Dict[Tuple[int, str, str], StencilKernel] = {}


def compile_pattern(
    pattern: StencilPattern, mode: str = "auto", elements: int = 0
) -> StencilKernel:
    """Build (or fetch from cache) the region kernel for ``pattern``.

    ``mode`` selects ``"native"`` (single-pass C kernel; raises
    :class:`CompileError` when no toolchain is available), ``"compiled"``
    (the fused NumPy engine; raise on failure), ``"interpreter"`` (the
    tree-walking oracle), or ``"auto"``: one engine per check, native when
    the ``elements`` cell updates the caller is about to run pay for its
    build, the NumPy engine otherwise (see :func:`_auto_kernel`; honours
    ``REPRO_NO_NATIVE=1``).  All engines produce bit-identical results.
    """
    dtype = pattern.dtype
    if mode not in ("auto", "native", "compiled", "interpreter"):
        raise ValueError(f"unknown kernel mode {mode!r}")
    key = (pattern.cache_key, dtype, mode)
    kernel = _KERNEL_CACHE.get(key)
    if mode == "auto":
        chosen = _auto_kernel(pattern, dtype, elements, kernel)
        if chosen is kernel:
            return kernel
        kernel = chosen
    elif kernel is not None:
        return kernel
    elif mode == "interpreter":
        kernel = InterpretedKernel(pattern, dtype)
    elif mode == "compiled":
        kernel = CompiledKernel(pattern, dtype)
    elif mode == "native":
        kernel = NativeKernel(pattern, dtype)
    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.clear()
    _KERNEL_CACHE[key] = kernel
    return kernel


def clear_kernel_cache() -> None:
    """Drop all cached kernels (and with them their scratch buffers)."""
    _KERNEL_CACHE.clear()
