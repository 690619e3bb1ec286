"""Compiled evaluation of stencil expressions.

A tree-walking interpreter pays a Python dispatch per node and allocates a
fresh temporary array per operation for every evaluated region.  This module
lowers a :class:`StencilPattern` expression *once* (:class:`Lowering`) into a
flat list of statements, one ``(operation, operand terms)`` each, and
every engine but the interpreter runs or prints that one list.  The NumPy
engine (:class:`CompiledKernel`) runs it as ufunc calls with ``out`` targets,
so a whole region update runs with

* no per-node dispatch (one loop over prepared calls per region),
* no per-node temporaries (a small pool of reusable scratch buffers: every
  value is used once, so an operation reuses its first operand's buffer),
* shifted *views* of the source array instead of copies for every grid read.

Constants are folded in the lowering using dtype-typed NumPy scalars, which
keeps every engine bit-identical to the interpreter (all perform the exact
same sequence of dtype-homogeneous operations).

On hosts with a C toolchain a second, *native* backend goes further: the same
statements are printed as a single-pass C loop nest, built with ``cc -O3
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
and any memory order; the NumPy engine lays its scratch out like ``out``.
The native engine has one loop nest, the streaming axis innermost, as
:func:`empty_stream_last` lays out the arrays both executors run it on; it
hands a call on any other layout to the NumPy engine, so all engines stay
bit-identical on such views.  Kernels are cached per
``(pattern, mode)`` and read the dtype from the pattern.  The tree-walking
:class:`InterpretedKernel` shares the interface but not the lowering: it is
only the oracle the others are checked against (``mode="interpreter"``, used
by the equivalence tests and the fuzzer); ``"auto"`` never picks it.
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
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.ir.expr import BinOp, Call, Const, Expr, GridRead, UnaryOp, fold
from repro.ir.stencil import StencilPattern

_NUMPY_DTYPES = {"float": np.float32, "double": np.float64}

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

#: The ufunc of each operation a lowered statement names (an operator, a
#: call name, or ``neg``): the NumPy engine runs them on arrays, and
#: constant folding applies them to scalars.
_UFUNCS: Dict[str, Callable] = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "neg": np.negative,
    **_CALL_NUMPY,
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
# Lowering
# ---------------------------------------------------------------------------

#: An operand of a lowered statement: ``("r", j)`` reads the ``j``-th
#: distinct offset, ``("c", k)`` is the ``k``-th constant and ``("v", i)``
#: the value of statement ``i``.
Term = Tuple[str, int]


class Lowering:
    """One lowering of an expression tree, which the NumPy engine runs and
    the native backend prints.

    ``reads`` numbers the distinct read offsets in first-use order (offset
    -> its term), ``consts`` holds the dtype-typed constants (constant
    subtrees are folded with NumPy scalar arithmetic), ``statements`` holds
    one ``(operation, operand terms)`` per remaining operation in evaluation
    order (the operation is a key of :data:`_UFUNCS`; statements hold only
    strings and numbers, so the garbage collector stops tracking them), and
    ``result`` is the whole tree's term.
    :func:`~repro.ir.expr.fold` combines a shared subtree once per parent,
    so every statement's value has exactly one use; when there are
    statements, the last is the root's.
    """

    def __init__(self, expr: Expr, np_dtype: type) -> None:
        self.np_dtype = np_dtype
        self.reads: Dict[Tuple[int, ...], Term] = {}
        self.consts: List[object] = []
        self.statements: List[Tuple[str, Tuple[Term, ...]]] = []
        self._const_terms: Dict[float, Term] = {}
        self.result: Term = fold(expr, self._lower)

    def _lower(self, expr: Expr, operands: List[Term]) -> Term:
        """Lower one node whose children are already lowered to ``operands``.

        Dispatch is on the exact node type, most frequent first."""
        kind = type(expr)
        if kind is BinOp:
            (lkind, lhs), (rkind, rhs) = operands
            if lkind != "c" or rkind != "c":
                return self._statement(expr.op, operands)
            with np.errstate(all="ignore"):
                return self._constant(_UFUNCS[expr.op](self.consts[lhs], self.consts[rhs]))
        if kind is GridRead:
            term = self.reads.get(expr.offset)
            if term is None:
                term = self.reads[expr.offset] = ("r", len(self.reads))
            return term
        if kind is Const:
            # One term per value, except zero: 0.0 == -0.0, but they differ.
            term = self._const_terms.get(expr.value) if expr.value else None
            if term is None:
                term = self._constant(expr.value)
                if expr.value:
                    self._const_terms[expr.value] = term
            return term
        if kind is UnaryOp:
            ((operand_kind, number),) = operands
            if operand_kind != "c":
                return self._statement("neg", operands)
            return self._constant(-self.consts[number])
        if kind is Call:  # Call checked the name and arity
            if any(operand_kind != "c" for operand_kind, _ in operands):
                return self._statement(expr.name, operands)
            values = [self.consts[number] for _, number in operands]
            return self._constant(_UFUNCS[expr.name](*values))
        raise CompileError(f"unknown expression node {expr!r}")

    def _statement(self, operation: str, operands: List[Term]) -> Term:
        statements = self.statements
        statements.append((operation, tuple(operands)))
        return "v", len(statements) - 1

    def _constant(self, value) -> Term:
        consts = self.consts
        consts.append(self.np_dtype(value))
        return "c", len(consts) - 1


def _scratch_slots(statements) -> Tuple[List[Optional[int]], int]:
    """Each statement's scratch slot (``None`` for the last, the root, which
    writes ``out``) and the number of slots: the peak number of statement
    values live at once.  A statement writes its first operand's slot when
    that operand is a statement value (an elementwise ufunc may write over
    its input), else the slot freed last or a new one, and frees its other
    operands' slots."""
    slots: List[Optional[int]] = []
    free: List[int] = []
    count = 0
    for _, operands in statements[:-1]:
        held = [slots[number] for kind, number in operands if kind == "v"]
        if held:
            target = held[0]
            free += held[1:]
        elif free:
            target = free.pop()
        else:
            target, count = count, count + 1
        slots.append(target)
    slots.append(None)
    return slots, count


# ---------------------------------------------------------------------------
# Kernel objects
# ---------------------------------------------------------------------------


class CompiledKernel:
    """The NumPy engine: one :class:`Lowering`'s statements run as ufunc
    calls with ``out`` targets, on scratch buffers reused across calls.

    Each call fills one operand list (the read views, the scratch buffers,
    ``out``, the constants) and each statement is a ufunc applied to the
    entries its prepared index picks.  The preparation (scratch slots and
    indices) happens at the first call, so a :class:`NativeKernel` that
    never hands a call to this engine never pays for it.
    """

    mode = "compiled"

    def __init__(self, pattern: StencilPattern) -> None:
        self.pattern = pattern
        self.np_dtype = numpy_dtype(pattern.dtype)
        self.lowering = Lowering(pattern.expr, self.np_dtype)
        # Scratch buffers are keyed by the shape and stride order of ``out``
        # and reused across calls (across tiles, time steps and launches).
        self._scratch: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[np.ndarray]] = {}

    @cached_property
    def _program(self):
        """``(read offsets per axis, read views' indices into the per-call
        slices, statements as (ufunc, operand indices), constants, scratch
        buffer count)``.

        A call's operand list is the read views, then the scratch buffers,
        ``out`` and the constants; its slice list is ``...`` and then, axis
        by axis, the region shifted by each distinct offset on that axis."""
        lowering, ndim = self.lowering, self.pattern.ndim
        slots, num_scratch = _scratch_slots(lowering.statements)
        reads = list(lowering.reads)
        axis_offsets = [sorted({offset[d] for offset in reads}) for d in range(ndim)]
        first = list(accumulate([1] + [len(offsets) for offsets in axis_offsets]))
        views = [
            itemgetter(0, *[first[d] + axis_offsets[d].index(offset[d]) for d in range(ndim)])
            for offset in reads
        ]
        out = len(reads) + num_scratch

        def index(term: Term) -> int:
            kind, number = term
            if kind == "v":
                slot = slots[number]
                return out if slot is None else len(reads) + slot
            return number if kind == "r" else out + 1 + number

        ops = [
            (_UFUNCS[operation], itemgetter(*map(index, operands), index(("v", number))))
            for number, (operation, operands) in enumerate(lowering.statements)
        ]
        if lowering.result[0] != "v":
            ops.append((np.copyto, itemgetter(out, index(lowering.result))))
        return axis_offsets, views, ops, lowering.consts, num_scratch

    @property
    def num_scratch(self) -> int:
        return self._program[4]

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
        axis_offsets, views, ops, consts, _ = self._program
        # One slice per (axis, distinct offset), shared by the reads.
        slices: List[object] = [Ellipsis]
        for bounds, offsets in zip(region, axis_offsets):
            start, stop = bounds.start, bounds.stop
            slices += [slice(start + offset, stop + offset) for offset in offsets]
        operands = [src[view(slices)] for view in views]
        operands += self.scratch_for(out)
        operands.append(out)
        operands += consts
        for ufunc, args in ops:
            ufunc(*args(operands))
        return out


class InterpretedKernel:
    """Tree-walking oracle with the same call convention as CompiledKernel."""

    mode = "interpreter"

    def __init__(self, pattern: StencilPattern) -> None:
        self.pattern = pattern
        self.np_dtype = numpy_dtype(pattern.dtype)

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
                return _UFUNCS[expr.op](*args)
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

#: Each compiler string's resolved path and the ``(st_dev, st_ino, st_size,
#: st_mtime_ns)`` of the file it resolved to.  One ``os.stat`` per use tells
#: whether it still holds: a repointed symlink or a rewritten file does not.
_RESOLVED_COMPILERS: Dict[str, Tuple[str, Tuple[int, int, int, int]]] = {}


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

    info = os.stat(compiler)
    resolved = _RESOLVED_COMPILERS.get(compiler)
    if resolved is None or resolved[1] != (
        info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns
    ):
        real = os.path.realpath(compiler)
        info = os.stat(real)
        resolved = _RESOLVED_COMPILERS[compiler] = (
            real, (info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns)
        )
    real, (_, _, size, mtime_ns) = resolved
    toolchain = (real, size, mtime_ns, _NATIVE_FLAGS, tuple(platform.uname()))
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
    """Whether the native backend can reproduce the NumPy engine bit-exactly:
    a set check of the call names the pattern collected when it was made,
    so it costs no walk of the tree."""
    return pattern.calls.issubset(_C_OPERATIONS)


def _c_literal(value, ctype: str) -> str:
    """``value`` as a C literal of ``ctype``: hexadecimal, so exact."""
    value = float(value)
    if value != value:
        return f"({ctype})NAN"
    if value in (float("inf"), float("-inf")):
        sign = "-" if value < 0 else ""
        return f"({sign}({ctype})INFINITY)"
    return value.hex() + ("f" if ctype == "float" else "")


#: The C expression of each operation a native kernel may run: ``%s`` is
#: an operand, ``{s}`` the math-function suffix of the C type.  The calls
#: are those whose C library implementation is bit-identical to the NumPy
#: ufunc (sqrt is correctly rounded by IEEE 754; fabs is a sign-bit
#: operation).  exp/min/max are left out: libm's exp differs from NumPy's
#: SIMD exp in the last ulp, and fmin/fmax disagree with
#: np.minimum/np.maximum on NaNs.
_C_OPERATIONS = {
    "+": "%s + %s", "-": "%s - %s", "*": "%s * %s", "/": "%s / %s", "neg": "-%s",
    "sqrt": "sqrt{s}(%s)", "sqrtf": "sqrt{s}(%s)", "fabs": "fabs{s}(%s)", "fabsf": "fabs{s}(%s)",
}


def _native_runs(statements, size: int) -> List[Tuple[int, int, Optional[str]]]:
    """Split the statements into ``(start, stop, carried)`` runs of at most
    ``size`` where possible.  A run may end only where exactly one
    statement value is live (``carried``, its C name, handed to the next run
    through the output row); a run with no such cut within ``size``
    statements extends to the next one.  Linear in the statements: one
    liveness pass, then a binary search of the cuts per run."""
    total = len(statements)
    if total <= size:
        return [(0, total, None)]
    # Each statement's value dies at its one use (the root's after the
    # body), so the live count after statement i is a running sum.  Where
    # it is one, the live value is the one just assigned.
    last_use = [total] * total
    for index, (_, operands) in enumerate(statements):
        for kind, number in operands:
            if kind == "v":
                last_use[number] = index
    deaths = [0] * (total + 1)
    for index in last_use:
        deaths[index] += 1
    live = accumulate(1 - deaths[index] for index in range(total - 1))
    cuts = [index for index, count in enumerate(live) if count == 1]
    runs: List[Tuple[int, int, Optional[str]]] = []
    start, carried = 0, None
    while total - start > size:
        # The last cut inside the next ``size`` statements, else the
        # first one beyond them.
        beyond = bisect_left(cuts, start + size)
        if beyond and cuts[beyond - 1] >= start:
            end = cuts[beyond - 1]
        elif beyond < len(cuts):
            end = cuts[beyond]
        else:
            break
        runs.append((start, end + 1, carried))
        start, carried = end + 1, f"v{end}"
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


def _stream_last_order(ndim: int) -> Tuple[int, ...]:
    """The loop order of :func:`empty_stream_last` arrays: the streaming
    dimension, the grid's first, innermost."""
    return tuple(range(1, ndim)) + (0,)


def generate_native_source(pattern: StencilPattern) -> str:
    """Generate the single-pass C translation unit for ``pattern``, in its
    dtype.

    The loop nest runs over ``n`` stacked regions (strides ``sn``/``on``
    between them), then over the pattern's dimensions in
    :func:`_stream_last_order`.  The streaming dimension, innermost, must be
    contiguous in both ``src`` and ``out`` (:class:`NativeKernel` checks
    this); per-read row pointers are hoisted so the inner loop is a plain
    stride-1 sweep the compiler can vectorize.  A body of more than
    :data:`NATIVE_CHUNK_STATEMENTS` statements runs as several such sweeps,
    each in its own block with the row pointers it reads.

    The statements are those the pattern's NumPy engine runs (the cached
    ``compile_pattern(pattern, mode="compiled")``), so the two engines of a
    pattern share one lowering.
    """
    unsupported = sorted(pattern.calls.difference(_C_OPERATIONS))
    if unsupported:
        raise CompileError(f"call {unsupported[0]!r} not supported by the native backend")
    lowering = compile_pattern(pattern, mode="compiled").lowering
    ndim = pattern.ndim
    ctype = pattern.dtype  # "float" or "double": the NumPy engine checked it
    suffix = "f" if ctype == "float" else ""
    order = _stream_last_order(ndim)
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

    # A read's row pointer, filled in with its name and its offset taken
    # in loop order.
    row = "".join(f" + (i{d} + ({{}}))*s{d}" for d in range(outer))
    row = f"const {ctype}* {{}} = src + g*sn{row} + ({{}});"

    offsets = list(lowering.reads)

    def row_pointers(reads, indent: str) -> None:
        for number in reads:
            pointer = row.format(f"r{number}", *map(offsets[number].__getitem__, order))
            lines.append(indent + pointer)

    # Each term's C spelling, by kind and number: a read's row element, a
    # literal, a temporary.
    statements = lowering.statements
    temps = [f"v{number}" for number in range(len(statements))]
    spelled = {
        "r": [f"r{number}[k]" for number in range(len(offsets))],
        "c": [_c_literal(value, ctype) for value in lowering.consts],
        "v": temps,
    }
    kind, number = lowering.result
    result = spelled[kind][number]
    runs = _native_runs(statements, NATIVE_CHUNK_STATEMENTS)
    # A split body's sweeps sit one block deeper.
    assign = f"{indent}{'    ' * (1 + (len(runs) > 1))}const {ctype} "
    templates = {
        operation: f"{assign}%s = {template.format(s=suffix)};"
        for operation, template in _C_OPERATIONS.items()
    }
    assignments = []
    for number, (operation, operands) in enumerate(statements):
        # Every operation C runs is unary or binary.
        if len(operands) == 2:
            (lkind, lhs), (rkind, rhs) = operands
            terms = (temps[number], spelled[lkind][lhs], spelled[rkind][rhs])
        else:
            ((kind, operand),) = operands
            terms = (temps[number], spelled[kind][operand])
        assignments.append(templates[operation] % terms)

    def sweep(start: int, stop: int, stored: str, indent: str, carried: Optional[str]) -> None:
        lines.append(f"{indent}for (ptrdiff_t k = l{outer}; k < h{outer}; ++k) {{")
        if carried is not None:
            lines.append(f"{indent}    const {ctype} {carried} = orow[k];")
        lines.extend(assignments[start:stop])
        lines.append(f"{indent}    orow[k] = {stored};")

    out_terms = ["g*on"] + [f"(i{d} - l{d})*o{d}" for d in range(outer)]
    out_terms.append(f"(-l{outer})")
    if len(runs) == 1:
        row_pointers(range(len(offsets)), indent)
        lines.append(f"{indent}{ctype}* orow = out + {' + '.join(out_terms)};")
        sweep(0, len(statements), result, indent, None)
    else:
        lines.append(f"{indent}{ctype}* orow = out + {' + '.join(out_terms)};")
        for number, (start, stop, carried) in enumerate(runs):
            used = dict.fromkeys(
                read
                for _, operands in statements[start:stop]
                for kind, read in operands
                if kind == "r"
            )
            stored = result if number == len(runs) - 1 else runs[number + 1][2]
            lines.append(f"{indent}{{")
            row_pointers(used, indent + "    ")
            sweep(start, stop, stored, indent + "    ", carried)
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
    kernel on this layout, the one loop order a native kernel has."""
    stream = len(shape) - ndim
    memory = shape[:stream] + shape[stream + 1:] + shape[stream:stream + 1]
    return np.moveaxis(np.empty(memory, np_dtype), -1, stream)


#: Call layouts one :class:`NativeKernel` keeps; a check uses a few dozen
#: at most (one per tile-stack shape, one for the reference's grids).
NATIVE_LAYOUTS_MAX = 64

#: The layout of a call the NumPy engine takes.
_NUMPY_LAYOUT = ()


class NativeKernel:
    """A single-pass C kernel, built with the host toolchain.

    Its one loop nest, in the loop order of :func:`empty_stream_last`
    arrays, is loaded or built when the kernel is made.  A call on arrays
    whose streaming axis is not contiguous in both (a C-ordered grid, a
    mismatched dtype) goes to the NumPy engine, which runs the lowering the
    loop nest is printed from, and counts in ``fallback_calls``.  What a
    call needs besides its pointers and bounds (the stack and stride
    arguments) is decided once per layout of ``src`` and ``out`` and kept in
    a dict of at most :data:`NATIVE_LAYOUTS_MAX` entries.
    """

    mode = "native"

    def __init__(self, pattern: StencilPattern) -> None:
        compiler = _native_compiler()
        if compiler is None:
            raise CompileError("no C compiler available for the native backend")
        if not native_supported(pattern):
            raise CompileError(
                f"pattern {pattern.name!r} uses operations the native backend cannot "
                "reproduce bit-exactly"
            )
        self.pattern = pattern
        self.np_dtype = numpy_dtype(pattern.dtype)
        self.itemsize = np.dtype(self.np_dtype).itemsize
        self.ndim = pattern.ndim
        self._order = _stream_last_order(self.ndim)
        # The NumPy engine, for calls the loop nest does not take; the loop
        # nest is printed from its lowering.
        self._fallback = compile_pattern(pattern, mode="compiled")
        self._fn = _native_entry_point(compiler, generate_native_source(pattern), self.ndim)
        self._layouts: Dict[tuple, tuple] = {}
        self.fallback_calls = 0

    def _layout(self, src: np.ndarray, out: np.ndarray) -> tuple:
        """The stack and stride arguments of calls on arrays laid out like
        ``src`` and ``out``; :data:`_NUMPY_LAYOUT` unless both have the
        kernel's dtype, at most one stack axis, and a contiguous streaming
        axis."""
        itemsize = self.itemsize
        lead = src.ndim - self.ndim
        if not (
            src.dtype == out.dtype == self.np_dtype
            and lead in (0, 1)
            and out.shape[:lead] == src.shape[:lead]
            and out.ndim == src.ndim
            and src.strides[lead] == itemsize == out.strides[lead]
        ):
            return _NUMPY_LAYOUT
        stack = (src.shape[0], src.strides[0] // itemsize, out.strides[0] // itemsize)
        fixed = [*(stack if lead else (1, 0, 0))]
        fixed += [src.strides[lead + d] // itemsize for d in self._order[:-1]]
        fixed += [out.strides[lead + d] // itemsize for d in self._order[:-1]]
        return tuple(fixed)

    def __call__(self, src: np.ndarray, region: Region, out: np.ndarray) -> np.ndarray:
        # The layout: dtypes, strides and the stack axes' extents (the
        # region, not ``out``'s grid extent, bounds the loops).
        ndim = self.ndim
        key = (src.dtype, out.dtype, src.shape[:-ndim], out.shape[:-ndim], src.strides, out.strides)
        layout = self._layouts.get(key)
        if layout is None:
            if len(self._layouts) >= NATIVE_LAYOUTS_MAX:
                self._layouts.clear()
            layout = self._layouts[key] = self._layout(src, out)
        if not layout:  # _NUMPY_LAYOUT
            # Delegate to the NumPy engine rather than reinterpreting raw bits.
            self.fallback_calls += 1
            return self._fallback(src, region, out)
        self._fn(
            src.ctypes.data, out.ctypes.data, *layout,
            *[bound for d in self._order for bound in (region[d].start, region[d].stop)],
        )
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


def _auto_kernel(pattern: StencilPattern, elements: int, cached):
    """The "auto" engine of one check of ``elements`` cell updates.

    Native when it pays (:func:`_native_pays`) and builds, else the NumPy
    engine.  A ``cached`` native choice is returned before the cost model
    runs; a cached NumPy one is kept unless this check pays for native.
    The mode reads ``auto:<engine>``.
    """
    if cached is not None and cached.mode == "auto:native":
        return cached
    native = _native_pays(pattern, elements)
    if cached is not None and not native:
        return cached
    kernel = cached
    if native:
        try:
            kernel = NativeKernel(pattern)
            kernel.mode = "auto:native"
        except CompileError:
            pass  # the NumPy engine is bit-identical
    if kernel is None:
        kernel = CompiledKernel(pattern)
        kernel.mode = "auto:compiled"
    return kernel


StencilKernel = Callable[[np.ndarray, Region, np.ndarray], np.ndarray]

# Keyed by (pattern.cache_key, mode); kernels hold a strong reference to
# their pattern, so tokens can never be confused across pattern instances.
_KERNEL_CACHE: Dict[Tuple[int, str], StencilKernel] = {}


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
    if mode not in ("auto", "native", "compiled", "interpreter"):
        raise ValueError(f"unknown kernel mode {mode!r}")
    key = (pattern.cache_key, mode)
    kernel = _KERNEL_CACHE.get(key)
    if mode == "auto":
        chosen = _auto_kernel(pattern, elements, kernel)
        if chosen is kernel:
            return kernel
        kernel = chosen
    elif kernel is not None:
        return kernel
    elif mode == "interpreter":
        kernel = InterpretedKernel(pattern)
    elif mode == "compiled":
        kernel = CompiledKernel(pattern)
    elif mode == "native":
        kernel = NativeKernel(pattern)
    if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.clear()
    _KERNEL_CACHE[key] = kernel
    return kernel


def clear_kernel_cache() -> None:
    """Drop all cached kernels (and with them their scratch buffers)."""
    _KERNEL_CACHE.clear()
