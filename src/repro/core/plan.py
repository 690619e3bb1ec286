"""Kernel plans: the macro schedule the code generator emits (Section 4.3.2).

A generated AN5D kernel is a sequence of LOAD / CALC / STORE macro calls
organised in three phases:

* **head** — statically unrolled start-up of the software pipeline (control
  statements would inflate register usage, so no loop is used),
* **inner** — a loop whose body covers one full register-rotation period of
  ``2*rad + 1`` streaming iterations,
* **tail** — statically unrolled drain of the pipeline with early exits for
  stream lengths that are not a multiple of the rotation period.

The schedule follows the pipeline dependency rule: the sub-plane at streaming
position ``p`` of combined time step ``T`` becomes computable right after the
sub-plane at position ``p + T * rad`` has been loaded (T = 0 denotes the
load itself), and the final time step's result for position ``p`` is stored
right after load ``p + bT * rad``.

The fixed register allocation (Section 4.2.1) has only ``2*rad + 1``
rotation shifts, so the scheduler resolves it once per (register group,
shift) and every macro's argument list is a table lookup: the ``bT *
(2*rad + 1)`` distinct lists are built once per plan, not once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import List, NamedTuple, Optional, Tuple

from repro.core.config import BlockingConfig
from repro.core.register_alloc import FixedRegisterAllocation
from repro.ir.stencil import StencilPattern


class MacroCall(NamedTuple):
    """One LOAD / CALC / STORE macro invocation.

    ``plane`` is the streaming index the macro touches, expressed relative to
    the phase: an absolute constant in the head/tail phases and an offset from
    the loop variable ``i`` in the inner phase (``plane_is_relative``).
    ``args`` is a tuple the scheduler builds once per (time step, rotation
    shift); calls at the same shift share it.
    """

    kind: str  # "LOAD", "CALC" or "STORE"
    time_step: int  # 0 for LOAD, 1..bT-1 for CALC, bT for STORE
    plane: int
    args: Tuple[str, ...]
    plane_is_relative: bool

    def render_plane(self, loop_var: str = "__h") -> str:
        if not self.plane_is_relative:
            return str(self.plane)
        if self.plane == 0:
            return loop_var
        sign = "+" if self.plane > 0 else "-"
        return f"{loop_var} {sign} {abs(self.plane)}"


@dataclass(frozen=True)
class StreamPhase:
    """One phase of the streaming schedule."""

    name: str  # "head", "inner", "tail"
    calls: Tuple[MacroCall, ...]
    loop_step: Optional[int] = None  # set for the inner phase


@dataclass(frozen=True)
class KernelPlan:
    """Everything code generation needs for one stencil kernel."""

    pattern: StencilPattern
    config: BlockingConfig
    phases: Tuple[StreamPhase, ...]
    use_star_opt: bool
    use_associative_opt: bool
    smem_buffers: int
    smem_planes_per_buffer: int

    @property
    def head(self) -> StreamPhase:
        return self.phases[0]

    @property
    def inner(self) -> StreamPhase:
        return next(p for p in self.phases if p.name == "inner")

    @property
    def tail(self) -> StreamPhase:
        return self.phases[-1]


class PipelineScheduler:
    """Builds the head / inner / tail macro schedule for a configuration.

    The fixed register allocation is resolved once per (group, shift):
    ``rotation_tables[g][s]`` names group ``g``'s registers in rotation order
    (oldest sub-plane first) at rotation shift ``s``, from
    :meth:`FixedRegisterAllocation.rotation`.  Every CALC and STORE argument
    list is then a lookup, and calls at the same shift share one tuple.
    """

    def __init__(self, pattern: StencilPattern, config: BlockingConfig) -> None:
        self.pattern = pattern
        self.config = config
        self.radius = pattern.radius
        self.period = 2 * pattern.radius + 1
        self.bT = config.bT
        registers = FixedRegisterAllocation(config.bT, pattern.radius)
        period, radius = self.period, self.radius
        pickers = [itemgetter(*registers.rotation(shift)) for shift in range(period)]
        groups = [[f"reg_{group}_{slot}" for slot in range(period)] for group in range(self.bT)]
        self.rotation_tables: Tuple[Tuple[Tuple[str, ...], ...], ...] = tuple(
            tuple(pick(names) for pick in pickers) for names in groups
        )
        # CALC arguments per (step, load shift), indexed from step 1: the
        # destination is the newest register of group ``step`` at the computed
        # plane's shift, the sources are group ``step - 1`` at the load's shift.
        tables = self.rotation_tables
        self._calc_table: List[Tuple[Tuple[str, ...], ...]] = [()] + [
            tuple(
                (tables[step][(shift - step * radius) % period][-1],) + tables[step - 1][shift]
                for shift in range(period)
            )
            for step in range(1, self.bT)
        ]
        self._load_args = tuple((f"reg_0_{slot}",) for slot in range(period))

    # -- scheduling helpers ----------------------------------------------------
    def head_length(self) -> int:
        """Number of statically unrolled loads before the inner loop starts.

        The head must cover at least the pipeline fill (``bT * rad`` loads
        before the first store) and end on a rotation-period boundary so the
        inner loop starts with a known register phase; one extra period is
        unrolled so that the first store is also unrolled statically
        (matching Fig. 5, where bT=4 / rad=1 yields a 9-load head).
        """
        fill = self.bT * self.radius + 1
        return (math.ceil(fill / self.period) + 1) * self.period

    def calls_for_load(
        self, load_index: int, origin: int = 0, relative: bool = False
    ) -> List[MacroCall]:
        """All macro calls issued right after streaming load ``load_index``,
        planes counted from ``origin``; only planes at or after stream
        position 0 are issued."""
        radius = self.radius
        shift = load_index % self.period
        plane = load_index - origin
        calls = [MacroCall("LOAD", 0, plane, self._load_args[shift], relative)]
        calc = self._calc_table
        for step in range(1, min(self.bT, load_index // radius + 1)):
            calls.append(MacroCall("CALC", step, plane - step * radius, calc[step][shift], relative))
        if load_index >= self.bT * radius:
            calls.append(MacroCall(
                "STORE", self.bT, plane - self.bT * radius, self._store_args(load_index), relative
            ))
        return calls

    def _store_args(self, load_index: int) -> Tuple[str, ...]:
        """STORE macro arguments: the final time-step group in rotation order."""
        return self.rotation_tables[self.bT - 1][load_index % self.period]

    # -- phase construction -------------------------------------------------------
    def build_head(self) -> StreamPhase:
        calls: List[MacroCall] = []
        for load_index in range(self.head_length()):
            calls += self.calls_for_load(load_index)
        return StreamPhase("head", tuple(calls))

    def build_inner(self) -> StreamPhase:
        """One register-rotation period of the steady state.

        Planes are expressed relative to the loop variable, which tracks the
        load index of the first load in the group (Fig. 5: loads ``i``,
        ``i+1``, ``i+2`` with stores at ``i-4``, ``i-3``, ``i-2``).
        """
        base = self.head_length()
        calls: List[MacroCall] = []
        for load_index in range(base, base + self.period):
            calls += self.calls_for_load(load_index, base, True)
        return StreamPhase("inner", tuple(calls), loop_step=self.period)

    def build_tail(self) -> StreamPhase:
        """Drain of the pipeline: stores for the planes still in flight.

        After the last load (stream position ``S - 1``), planes
        ``S - bT*rad .. S - 1`` of the final time step have not been stored
        yet; the tail phase finishes their computation using the constant
        boundary planes held in the T = 0 register group (Section 4.1).
        Planes count from the first load after the inner loop, so the
        ``e``-th extra load's step ``T`` computes plane ``e - T*rad``, as
        every earlier load's does.
        """
        calls: List[MacroCall] = []
        first = self.head_length() + self.period
        for extra in range(1, self.bT * self.radius + 1):
            # The calls of a load past the stream, without the LOAD itself.
            calls += self.calls_for_load(first + extra, first, True)[1:]
        return StreamPhase("tail", tuple(calls))

    def build(self) -> Tuple[StreamPhase, ...]:
        return (self.build_head(), self.build_inner(), self.build_tail())
