"""NumPy reference execution of stencil patterns.

The reference executor applies the stencil naively, one full time step at a
time, over the whole interior.  It is the correctness oracle for the
functional executor in :mod:`repro.sim.executor`, which runs the *blocked*
schedule (spatial blocks, halos, streaming, temporal blocking) and must
produce bit-compatible results up to floating-point reassociation.

Boundary handling follows the benchmarks: the grid carries a ring of
``radius`` boundary cells on every side whose values are held constant across
time steps (they are never updated, matching the ``1 .. I_S`` loop bounds of
the C sources).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ir.compile import StencilKernel, compile_pattern, empty_stream_last, numpy_dtype
from repro.ir.stencil import GridSpec, StencilPattern


def make_initial_grid(pattern: StencilPattern, grid: GridSpec, seed: int = 0) -> np.ndarray:
    """A reproducible initial condition including the constant boundary ring."""
    rng = np.random.default_rng(seed)
    data = rng.random(grid.padded(pattern.radius))
    # rng.uniform(0.1, 1.0)'s own arithmetic, in place: the same bits
    # without its temporaries.
    data *= 1.0 - 0.1
    data += 0.1
    return data.astype(numpy_dtype(pattern.dtype), copy=False)


#: A frame of more than this share of its buffer's cells is copied with the
#: rest of the buffer.  The slab along the axis innermost in memory is one
#: short run per row, so on a 2-vCPU x86-64 host a 32^3 double grid with a
#: radius-4 frame (58% of it) took 31 us as slabs against 8 us whole, and
#: 3-D tile stacks (frames of 50-69%) 1.4-1.6x their whole copy; a 50^3
#: grid's radius-1 frame (12%) took 22 us against 47 us whole, and 2-D
#: verify tiles and grids (frames of 1-10%) 2-25x less than whole.
FRAME_SHARE_MAX = 0.25


def copy_frame(
    src: np.ndarray, dst: np.ndarray, box: tuple[tuple[int, int], ...], stacked: bool = False
) -> None:
    """Copy the cells of ``src`` outside ``box`` into ``dst``.

    ``box`` is one half-open ``(lo, hi)`` range per grid dimension; with
    ``stacked`` both arrays carry a leading stack axis the box leaves whole.
    The frame goes as 2 x ndim slabs that do not overlap: dimension ``d``'s
    two slabs span the box in the dimensions before ``d`` and the whole
    extent after it.  A frame of more than :data:`FRAME_SHARE_MAX` of the
    cells goes with the box's cells in one copy instead.  Values are cast as
    the executors' loads cast them (``casting="unsafe"``).
    """
    grid = dst.shape[1:] if stacked else dst.shape
    if math.prod(hi - lo for lo, hi in box) < (1.0 - FRAME_SHARE_MAX) * math.prod(grid):
        np.copyto(dst, src, casting="unsafe")
        return
    inside: tuple[slice, ...] = (slice(None),) if stacked else ()
    for d, (lo, hi) in enumerate(box):
        after = (slice(None),) * (len(box) - d - 1)
        for side in (slice(None, lo), slice(hi, None)):
            slab = inside + (side,) + after
            np.copyto(dst[slab], src[slab], casting="unsafe")
        inside += (slice(lo, hi),)


def stream_last_buffers(
    initial: np.ndarray, ndim: int, np_dtype: type, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """A copy of ``initial`` and a grid given only its boundary ring (the
    ``radius`` cells a step never writes; see :func:`copy_frame`), to
    time-step between; both laid out by
    :func:`~repro.ir.compile.empty_stream_last`."""
    current = empty_stream_last(initial.shape, ndim, np_dtype)
    np.copyto(current, initial, casting="unsafe")
    other = empty_stream_last(initial.shape, ndim, np_dtype)
    copy_frame(current, other, tuple((radius, dim - radius) for dim in current.shape))
    return current, other


class ReferenceExecutor:
    """Evaluates a stencil pattern directly with NumPy array arithmetic.

    The expression is lowered once to a fused kernel
    (:func:`repro.ir.compile.compile_pattern`); time stepping double-buffers
    two preallocated grids instead of copying the source every step.  With
    no ``kernel`` given it reuses the pattern's cached "auto" kernel, the
    one a check's blocked executor chose.
    """

    def __init__(self, pattern: StencilPattern, kernel: StencilKernel | None = None) -> None:
        self.pattern = pattern
        self.radius = pattern.radius
        self.dtype = numpy_dtype(pattern.dtype)
        self.kernel = kernel if kernel is not None else compile_pattern(pattern)

    # -- stepping -----------------------------------------------------------
    def run(self, initial: np.ndarray, time_steps: int) -> np.ndarray:
        """Apply ``time_steps`` steps starting from ``initial``.

        Double-buffered: the boundary ring is constant across steps, so the
        two buffers swap roles instead of re-copying the grid every step,
        and the second one gets only the ring copied in (every step writes
        the whole interior).  They keep the streaming dimension innermost in
        memory, as the blocked executor's spare grids and tile stacks do, so
        a check runs the native kernel's one loop order: ``initial`` is
        copied into that layout, since the native kernel needs the
        streaming axis contiguous in both of its arrays, and the result
        comes back in C order.
        """
        if time_steps <= 0:
            return initial.astype(self.dtype, copy=True)
        current, other = stream_last_buffers(initial, self.pattern.ndim, self.dtype, self.radius)
        interior = tuple(slice(self.radius, dim - self.radius) for dim in current.shape)
        for _ in range(time_steps):
            self.kernel(current, interior, out=other[interior])
            current, other = other, current
        return np.ascontiguousarray(current)


def run_reference(
    pattern: StencilPattern, grid: GridSpec, initial: np.ndarray | None = None, seed: int = 0
) -> np.ndarray:
    """Run the reference executor over ``grid.time_steps`` steps."""
    if initial is None:
        initial = make_initial_grid(pattern, grid, seed)
    kernel = compile_pattern(pattern, elements=grid.cells * grid.time_steps)
    return ReferenceExecutor(pattern, kernel).run(initial, grid.time_steps)


#: Chunk length for the streaming max_relative_error pass; bounds scratch
#: memory at a few hundred KiB regardless of grid size.
_ERROR_CHUNK = 1 << 16


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Maximum relative difference between two grids (used by verify()).

    Streams over the arrays in fixed-size chunks with reused scratch buffers
    instead of materialising three full-size temporaries, and guards against
    NaN inputs: positions where exactly one side is NaN (or the relative
    error itself is NaN, e.g. inf vs inf of opposite sign) count as infinite
    error, while positions where both sides are NaN are treated as matching.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    flat_a = a.reshape(-1)
    flat_b = b.reshape(-1)
    size = flat_a.size
    chunk = min(_ERROR_CHUNK, max(size, 1))
    diff = np.empty(chunk, dtype=np.float64)
    denom = np.empty(chunk, dtype=np.float64)
    scratch = np.empty(chunk, dtype=np.float64)
    worst = 0.0
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        n = stop - start
        x = flat_a[start:stop]
        y = flat_b[start:stop]
        d, m, s = diff[:n], denom[:n], scratch[:n]
        np.subtract(x, y, out=d, casting="unsafe")
        np.abs(d, out=d)
        np.abs(x, out=m, casting="unsafe")
        np.abs(y, out=s, casting="unsafe")
        np.maximum(m, s, out=m)
        np.copyto(m, 1.0, where=(m == 0))
        np.divide(d, m, out=d)
        if np.isnan(d).any():
            both_nan = np.isnan(x) & np.isnan(y)
            np.copyto(d, 0.0, where=both_nan)
            np.copyto(d, np.inf, where=np.isnan(d))
        peak = float(np.max(d)) if n else 0.0
        if peak > worst:
            worst = peak
    return worst


#: Chunk length for the streaming allclose_for_dtype pass: two scratch
#: buffers of it stay in cache (514^2 grids on a 2-vCPU x86-64 host: 32 Ki
#: elements beat 8 Ki and 64 Ki in both dtypes).
_CLOSE_CHUNK = 1 << 15


def allclose_for_dtype(a: np.ndarray, b: np.ndarray, dtype: str) -> bool:
    """Floating-point comparison with a tolerance appropriate for the dtype.

    Temporal blocking re-associates sums, so results differ from the
    reference by accumulated rounding; the tolerance scales with the number
    of accumulated operations rather than demanding bit equality.

    The verdict is ``np.allclose``'s.  Same-shape float32/float64 arrays
    of one dtype are streamed in chunks with two reused scratch buffers:
    a chunk passes when ``max(|a - b| - (atol + rtol * |b|)) <= 0``, in
    the arrays' own dtype as numpy 2 computes it (the tolerances are weak
    scalars).  A NaN or infinity makes that maximum NaN or positive, so
    such a chunk, like any chunk that fails, is decided by ``np.isclose``.
    """
    rtol = 1e-4 if dtype == "float" else 1e-9
    atol = 1e-5 if dtype == "float" else 1e-11
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype or a.dtype not in (np.float32, np.float64):
        return bool(np.allclose(a, b, rtol=rtol, atol=atol))
    flat_a = a.reshape(-1)
    flat_b = b.reshape(-1)
    size = flat_a.size
    chunk = min(_CLOSE_CHUNK, max(size, 1))
    diff = np.empty(chunk, dtype=a.dtype)
    bound = np.empty(chunk, dtype=a.dtype)
    for start in range(0, size, chunk):
        x = flat_a[start:start + chunk]
        y = flat_b[start:start + chunk]
        d, t = diff[:x.size], bound[:x.size]
        np.subtract(x, y, out=d)
        np.abs(d, out=d)
        np.abs(y, out=t)
        np.multiply(t, rtol, out=t)
        np.add(t, atol, out=t)
        np.subtract(d, t, out=d)
        if not d.max() <= 0 and not np.isclose(x, y, rtol=rtol, atol=atol).all():
            return False
    return True
