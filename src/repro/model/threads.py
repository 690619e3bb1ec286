"""Thread-work accounting (Section 5, first step of the model).

The model classifies every thread of every sub-plane into the four categories
of the execution model (valid / redundant / boundary / out-of-bound) and from
the classification derives how many thread-operations of each kind one full
stencil run performs:

* ``gm_read`` — global memory reads: every in-grid thread reads one cell per
  streamed sub-plane (time step T = 0 only),
* ``gm_write`` — global memory writes: only valid threads store, only for the
  compute-region sub-planes, at T = bT,
* ``compute`` — cell updates: valid and redundant threads compute every one of
  the bT combined time steps,
* ``sm_write`` / ``sm_read`` — shared-memory traffic: every thread writes its
  cell once per time step (including out-of-bound threads, which write to
  avoid branching); compute threads read their neighbourhoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import BlockingConfig
from repro.core.execution_model import ExecutionModel, ThreadCategory
from repro.ir.stencil import GridSpec, StencilPattern


@dataclass(frozen=True)
class ThreadWorkCounts:
    """Thread-operation totals for a complete stencil run."""

    compute: int
    gm_read: int
    gm_write: int
    sm_read: int
    sm_write: int
    launches: int
    threads_per_subplane_valid: int
    threads_per_subplane_redundant: int
    threads_per_subplane_boundary: int
    threads_per_subplane_out_of_bound: int


def count_thread_work(
    pattern: StencilPattern, grid: GridSpec, config: BlockingConfig
) -> ThreadWorkCounts:
    """Compute the thread-work totals of running ``grid.time_steps`` steps."""
    model = ExecutionModel(pattern, grid, config)
    counts = model.thread_category_counts()
    valid = counts[ThreadCategory.VALID]
    redundant = counts[ThreadCategory.REDUNDANT]
    boundary = counts[ThreadCategory.BOUNDARY]
    out_of_bound = counts[ThreadCategory.OUT_OF_BOUND]

    bT = config.bT
    launches = math.ceil(grid.time_steps / bT) if grid.time_steps else 0
    # Fraction of a full bT-step launch performed on average (the final
    # launch may combine fewer steps).
    step_fraction = grid.time_steps / (launches * bT) if launches else 0.0

    planes_loaded = model.streamed_subplane_loads()
    plane_steps = model.streamed_subplane_compute_steps()
    planes_stored = model.streaming_extent

    in_grid = valid + redundant + boundary
    compute_threads = valid + redundant

    per_launch_compute = compute_threads * plane_steps * step_fraction
    per_launch_gm_read = in_grid * planes_loaded
    per_launch_gm_write = valid * planes_stored
    per_launch_sm_write = (
        (valid + redundant + boundary + out_of_bound) * plane_steps * step_fraction
    )
    per_launch_sm_read = compute_threads * plane_steps * step_fraction

    return ThreadWorkCounts(
        compute=int(per_launch_compute * launches),
        gm_read=int(per_launch_gm_read * launches),
        gm_write=int(per_launch_gm_write * launches),
        sm_read=int(per_launch_sm_read * launches),
        sm_write=int(per_launch_sm_write * launches),
        launches=launches,
        threads_per_subplane_valid=valid,
        threads_per_subplane_redundant=redundant,
        threads_per_subplane_boundary=boundary,
        threads_per_subplane_out_of_bound=out_of_bound,
    )
