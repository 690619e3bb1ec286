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

import numpy as np

from repro.ir.compile import StencilKernel, compile_pattern, empty_stream_last, numpy_dtype
from repro.ir.stencil import GridSpec, StencilPattern


def make_initial_grid(pattern: StencilPattern, grid: GridSpec, seed: int = 0) -> np.ndarray:
    """A reproducible initial condition including the constant boundary ring."""
    rng = np.random.default_rng(seed)
    shape = grid.padded(pattern.radius)
    data = rng.uniform(0.1, 1.0, size=shape)
    return data.astype(numpy_dtype(pattern.dtype))


def stream_last_buffers(
    initial: np.ndarray, ndim: int, np_dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """Two copies of ``initial`` to time-step between, laid out by
    :func:`~repro.ir.compile.empty_stream_last`."""
    current = empty_stream_last(initial.shape, ndim, np_dtype)
    np.copyto(current, initial, casting="unsafe")
    other = empty_stream_last(initial.shape, ndim, np_dtype)
    np.copyto(other, current)
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
        two buffers swap roles instead of re-copying the grid every step.
        They keep the streaming dimension innermost in memory, as the
        blocked executor's do, so a check runs one loop order of its kernel;
        the result comes back in C order.
        """
        if time_steps <= 0:
            return initial.astype(self.dtype, copy=True)
        current, other = stream_last_buffers(initial, self.pattern.ndim, self.dtype)
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


def allclose_for_dtype(a: np.ndarray, b: np.ndarray, dtype: str) -> bool:
    """Floating-point comparison with a tolerance appropriate for the dtype.

    Temporal blocking re-associates sums, so results differ from the
    reference by accumulated rounding; the tolerance scales with the number
    of accumulated operations rather than demanding bit equality.
    """
    rtol = 1e-4 if dtype == "float" else 1e-9
    atol = 1e-5 if dtype == "float" else 1e-11
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))
