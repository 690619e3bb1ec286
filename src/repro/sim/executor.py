"""Functional execution of the N.5D blocked schedule.

This executor applies the stencil exactly the way the generated CUDA code
does at the tile level: the grid is covered by overlapping spatial blocks
(and, when the streaming dimension is divided, overlapping stream blocks);
each block loads its compute region plus a ``bT * rad`` halo, performs ``bT``
time steps locally (computing redundantly in the halo), and writes back only
the compute region.  Wrong values propagate inward from the cut edges at one
radius per time step — which is precisely why the halo width guarantees the
compute region stays correct.

Matching the generated host code (Section 4.3.1), a run of ``I_T`` time steps
is split into launches of ``bT`` steps with a shorter final launch when
``I_T`` is not a multiple of ``bT``.

Tiles whose local steps are identical — same load shape, same updatable
range and same local store range — form one :class:`TileGroup`: interior
tiles fall into one group, edge and corner tiles into a few more.  A group's
loads are copied into one stacked ``(G, ...)`` buffer pair of at most
:data:`STACK_ELEMENTS` elements, and each time step is one kernel call over
the whole stack, so every cell still sees the same ufunc sequence as with
one call per tile.  The kernel is the one :func:`compile_pattern` returns
for the pattern itself, its engine chosen from the cell updates the run will
make (:meth:`BlockedStencilExecutor.updated_elements`) and, in a check,
those of the reference executor, which shares it.
Grids and stacks keep the streaming dimension innermost in memory (the
dependency cone only shrinks the blocked dimensions, so the kernel's ufuncs
sweep long contiguous spans), as the reference's grids do, so a check runs
one loop order of a native kernel; coordinates stay logical throughout.

The executor is the correctness oracle the test-suite, ``verify`` and the
fuzz campaign rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.config import BlockingConfig
from repro.core.execution_model import ExecutionModel
from repro.ir.compile import compile_pattern, empty_stream_last
from repro.ir.stencil import GridSpec, StencilPattern
from repro.stencils.reference import (
    ReferenceExecutor,
    allclose_for_dtype,
    make_initial_grid,
    max_relative_error,
    numpy_dtype,
    stream_last_buffers,
)

#: Element cap of one tile stack (members x tile cells); a single tile may
#: exceed it.  Warm blocked runs (ms) for caps of 1 / 32k / 64k / 128k /
#: unbounded elements on a 2-vCPU x86 host, verify-sized grids: box3d4r
#: double 181 / 118 / 102 / 83 / 83, box3d2r double 216 / 108 / 94 / 88 / 132,
#: box2d2r double 88 / 96 / 98 / 110 / 142.  Bigger stacks save calls but
#: fall out of cache; at 64k the 3-D gain is mostly kept while 2-D verify
#: tiles (~33k elements) stay one per stack (stacking them cost 2-D items
#: 15-20%).
STACK_ELEMENTS = 65_536


def _slices(ranges: Tuple[Tuple[int, int], ...]) -> Tuple[slice, ...]:
    return tuple(slice(lo, hi) for lo, hi in ranges)


@dataclass(frozen=True)
class TileExtent:
    """One tile of the blocked iteration space, in padded-array coordinates.

    ``load`` is the half-open range of cells read into on-chip memory,
    ``store`` the half-open range written back (the compute region clipped to
    the grid interior).
    """

    load: Tuple[Tuple[int, int], ...]
    store: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class TileGroup:
    """Tiles of one launch that run identical local steps.

    ``shape`` is the load shape, ``base`` the local range of grid-interior
    (updatable) cells with a full neighbourhood in the tile, ``store`` the
    local store range; together they are everything the dependency cone
    reads.  ``stack_size`` tiles at most share one stacked kernel call.
    """

    shape: Tuple[int, ...]
    base: Tuple[Tuple[int, int], ...]
    store: Tuple[Tuple[int, int], ...]
    tiles: Tuple[TileExtent, ...]

    @property
    def stack_size(self) -> int:
        return max(1, STACK_ELEMENTS // int(np.prod(self.shape)))

    @property
    def updatable(self) -> bool:
        return all(lo < hi for lo, hi in self.base)

    def cone_region(self, step: int, time_block: int, rad: int) -> Tuple[slice, ...]:
        """The local cells step ``step`` of ``time_block`` updates.

        Dependency cone: at step s only cells within (time_block - s) * rad
        of the stored region can still influence it, so the update region
        shrinks toward the store region without changing any stored value.
        """
        margin = (time_block - step) * rad
        return tuple(
            slice(max(b_lo, s_lo - margin), min(b_hi, s_hi + margin))
            for (b_lo, b_hi), (s_lo, s_hi) in zip(self.base, self.store)
        )


class BlockedStencilExecutor:
    """Runs a stencil with AN5D's overlapped space/time blocking on NumPy."""

    def __init__(
        self,
        pattern: StencilPattern,
        grid: GridSpec,
        config: BlockingConfig,
        kernel_mode: str = "auto",
        with_reference: bool = True,
    ) -> None:
        """``with_reference``: a reference run of the same grid (a check)
        will share :attr:`kernel`, so its cell updates count toward the
        "auto" engine choice too; pass False for a blocked run alone."""
        config.validate(pattern)
        self.pattern = pattern
        self.grid = grid
        self.config = config
        self.radius = pattern.radius
        self.model = ExecutionModel(pattern, grid, config)
        self.dtype = numpy_dtype(pattern.dtype)
        # Groups are identical for every launch with the same time_block;
        # stacks of equal shape share one pair of buffers.
        self._groups: Dict[int, List[TileGroup]] = {}
        self._stack_buffers: Dict[Tuple[int, ...], Tuple[np.ndarray, np.ndarray]] = {}
        elements = self.updated_elements(grid.time_steps)
        if with_reference:
            elements += grid.cells * grid.time_steps
        self.kernel = compile_pattern(pattern, mode=kernel_mode, elements=elements)

    # -- tiling ----------------------------------------------------------------
    def _dim_tiles(self, extent: int, compute: int, halo: int) -> List[Tuple[int, int, int, int]]:
        """Per-dimension (load_start, load_end, store_start, store_end) in
        interior coordinates."""
        tiles = []
        start = 0
        while start < extent:
            stop = min(start + compute, extent)
            tiles.append((start - halo, stop + halo, start, stop))
            start = stop
        return tiles

    def tiles(self, time_block: int) -> Iterator[TileExtent]:
        """Enumerate the tiles of one launch combining ``time_block`` steps."""
        rad = self.radius
        halo = time_block * rad
        padded = self.grid.padded(rad)

        per_dim: List[List[Tuple[int, int, int, int]]] = []
        # Streaming dimension (dimension 0): divided only when hS is set.
        stream_extent = self.grid.interior[0]
        if self.config.hS is None:
            per_dim.append([(0 - halo, stream_extent + halo, 0, stream_extent)])
        else:
            per_dim.append(self._dim_tiles(stream_extent, self.config.hS, halo))
        # Blocked dimensions.
        for extent, compute in zip(self.grid.interior[1:], self.model.compute_sizes):
            per_dim.append(self._dim_tiles(extent, compute, halo))

        def clip(load_start: int, load_end: int, dim: int) -> Tuple[int, int]:
            # Convert interior coords to padded coords (+rad) and clip.
            lo = max(load_start + rad, 0)
            hi = min(load_end + rad, padded[dim])
            return lo, hi

        def recurse(dim: int, loads: List[Tuple[int, int]], stores: List[Tuple[int, int]]):
            if dim == len(per_dim):
                yield TileExtent(tuple(loads), tuple(stores))
                return
            for load_start, load_end, store_start, store_end in per_dim[dim]:
                load = clip(load_start, load_end, dim)
                store = (store_start + rad, store_end + rad)
                yield from recurse(dim + 1, loads + [load], stores + [store])

        yield from recurse(0, [], [])

    def tile_groups(self, time_block: int) -> List[TileGroup]:
        """The tiles of one launch grouped by their local steps (cached)."""
        cached = self._groups.get(time_block)
        if cached is None:
            rad = self.radius
            padded = self.grid.padded(rad)
            members: Dict[tuple, List[TileExtent]] = {}
            for tile in self.tiles(time_block):
                shape = tuple(hi - lo for lo, hi in tile.load)
                base = tuple(
                    (max(max(lo, rad) - lo, rad), min(min(hi, dim - rad) - lo, size - rad))
                    for (lo, hi), dim, size in zip(tile.load, padded, shape)
                )
                store = tuple(
                    (store_lo - load_lo, store_hi - load_lo)
                    for (store_lo, store_hi), (load_lo, _) in zip(tile.store, tile.load)
                )
                members.setdefault((shape, base, store), []).append(tile)
            cached = [TileGroup(*key, tuple(tiles)) for key, tiles in members.items()]
            self._groups[time_block] = cached
        return cached

    # -- execution -----------------------------------------------------------------
    def _run_stack(
        self,
        source: np.ndarray,
        destination: np.ndarray,
        group: TileGroup,
        tiles: Tuple[TileExtent, ...],
        time_block: int,
    ) -> None:
        """Compute ``time_block`` steps of ``tiles`` (members of ``group``)
        as one stack and store their compute regions into ``destination``."""
        rad = self.radius
        key = (len(tiles),) + group.shape
        pair = self._stack_buffers.get(key)
        if pair is None:
            ndim = self.pattern.ndim
            pair = self._stack_buffers[key] = (
                empty_stream_last(key, ndim, self.dtype),
                empty_stream_last(key, ndim, self.dtype),
            )
        current, other = pair
        for index, tile in enumerate(tiles):
            np.copyto(current[index], source[_slices(tile.load)])

        if group.updatable:
            # Double-buffered stepping: each buffer's never-written cells keep
            # their loaded values (stale halo cells near cut edges are never
            # read by any cell the stored region depends on).  The second
            # buffer only ever gets read inside the first step's region
            # expanded by one radius, so only that part needs the loaded
            # values.
            stack = (slice(None),)
            if time_block >= 2:
                seed = stack + tuple(
                    slice(max(s.start - rad, 0), min(s.stop + rad, dim))
                    for s, dim in zip(group.cone_region(1, time_block, rad), group.shape)
                )
                np.copyto(other[seed], current[seed])
            for step in range(1, time_block + 1):
                region = group.cone_region(step, time_block, rad)
                self.kernel(current, region, out=other[stack + region])
                current, other = other, current
        store = _slices(group.store)
        for index, tile in enumerate(tiles):
            destination[_slices(tile.store)] = current[(index,) + store]

    def _launch_into(
        self, source: np.ndarray, destination: np.ndarray, time_block: int
    ) -> None:
        """Run one launch from ``source`` into ``destination``.

        ``destination`` must already carry the constant boundary ring; the
        tile stores cover the whole interior.
        """
        for group in self.tile_groups(time_block):
            size = group.stack_size
            for first in range(0, len(group.tiles), size):
                tiles = group.tiles[first:first + size]
                self._run_stack(source, destination, group, tiles, time_block)

    def updated_elements(self, total_steps: int) -> int:
        """Cell updates the kernel runs over ``total_steps`` steps, known
        before the run from the launch schedule and the tile groups."""
        total = 0
        for launch_steps in self.launch_schedule(total_steps):
            for group in self.tile_groups(launch_steps):
                if group.updatable:
                    for step in range(1, launch_steps + 1):
                        region = group.cone_region(step, launch_steps, self.radius)
                        total += len(group.tiles) * math.prod(s.stop - s.start for s in region)
        return total

    def launch_schedule(self, total_steps: int) -> List[int]:
        """Split ``total_steps`` into per-launch step counts (host-code logic)."""
        schedule: List[int] = []
        remaining = total_steps
        while remaining > 0:
            step = min(self.config.bT, remaining)
            schedule.append(step)
            remaining -= step
        return schedule

    def run(self, initial: np.ndarray, time_steps: int | None = None) -> np.ndarray:
        """Run the full blocked computation (double-buffered across launches).

        The grid is copied into the stream-innermost layout once per run and
        back to C order at the end; all launches in between reuse the two
        full-grid buffers.
        """
        steps = self.grid.time_steps if time_steps is None else time_steps
        schedule = self.launch_schedule(steps)
        if not schedule:
            return initial.astype(self.dtype, copy=True)
        current, destination = stream_last_buffers(initial, self.pattern.ndim, self.dtype)
        for launch_steps in schedule:
            self._launch_into(current, destination, launch_steps)
            current, destination = destination, current
        return np.ascontiguousarray(current)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking the blocked schedule against the reference."""

    matches: bool
    max_relative_error: float

    def __bool__(self) -> bool:
        return self.matches


def verify_blocking(
    pattern: StencilPattern,
    grid: GridSpec,
    config: BlockingConfig,
    seed: int = 0,
    kernel_mode: str = "auto",
) -> VerificationResult:
    """Run both executors from the same initial grid, on one kernel, and
    compare.  ``kernel_mode`` is the engine (see
    :func:`~repro.ir.compile.compile_pattern`)."""
    initial = make_initial_grid(pattern, grid, seed)
    executor = BlockedStencilExecutor(pattern, grid, config, kernel_mode=kernel_mode)
    blocked = executor.run(initial)
    reference = ReferenceExecutor(pattern, executor.kernel).run(initial, grid.time_steps)
    return VerificationResult(
        matches=allclose_for_dtype(blocked, reference, pattern.dtype),
        max_relative_error=max_relative_error(blocked, reference),
    )
