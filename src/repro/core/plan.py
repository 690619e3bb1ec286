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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import BlockingConfig
from repro.core.register_alloc import FixedRegisterAllocation
from repro.ir.stencil import StencilPattern


@dataclass(frozen=True)
class MacroCall:
    """One LOAD / CALC / STORE macro invocation.

    ``plane`` is the streaming index the macro touches, expressed relative to
    the phase: an absolute constant in the head/tail phases and an offset from
    the loop variable ``i`` in the inner phase (``plane_is_relative``).
    """

    kind: str  # "LOAD", "CALC" or "STORE"
    time_step: int  # 0 for LOAD, 1..bT-1 for CALC, bT for STORE
    plane: int
    args: Tuple[str, ...]
    plane_is_relative: bool = False

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
    """Builds the head / inner / tail macro schedule for a configuration."""

    def __init__(self, pattern: StencilPattern, config: BlockingConfig) -> None:
        self.pattern = pattern
        self.config = config
        self.radius = pattern.radius
        self.period = 2 * pattern.radius + 1
        self.bT = config.bT
        self.registers = FixedRegisterAllocation(config.bT, pattern.radius)

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

    def calls_for_load(self, load_index: int) -> List[MacroCall]:
        """All macro calls issued right after streaming load ``load_index``."""
        slot = load_index % self.period
        calls = [MacroCall("LOAD", 0, load_index, (f"reg_0_{slot}",))]
        for step in range(1, self.bT):
            plane = load_index - step * self.radius
            if plane >= 0:
                calls.append(MacroCall("CALC", step, plane, self._calc_args(step, load_index)))
        store_plane = load_index - self.bT * self.radius
        if store_plane >= 0:
            calls.append(
                MacroCall("STORE", self.bT, store_plane, self._store_args(load_index))
            )
        return calls

    def _calc_args(self, step: int, load_index: int) -> Tuple[str, ...]:
        """CALC macro arguments: destination register then source registers.

        The destination belongs to time-step group ``step``; the sources are
        the ``2*rad + 1`` registers of group ``step - 1`` in rotation order
        (oldest sub-plane first), resolved for the current streaming phase.
        """
        source_group = step - 1
        rotation = self.registers.rotation(load_index)
        sources = tuple(f"reg_{source_group}_{slot}" for slot in rotation)
        dest_slot = self.registers.destination_slot(load_index - step * self.radius)
        dest = f"reg_{step}_{dest_slot}"
        return (dest,) + sources

    def _store_args(self, load_index: int) -> Tuple[str, ...]:
        """STORE macro arguments: the final time-step group in rotation order."""
        rotation = self.registers.rotation(load_index)
        group = self.bT - 1
        return tuple(f"reg_{group}_{slot}" for slot in rotation)

    # -- phase construction -------------------------------------------------------
    def build_head(self) -> StreamPhase:
        calls: List[MacroCall] = []
        for load_index in range(self.head_length()):
            calls.extend(self.calls_for_load(load_index))
        return StreamPhase("head", tuple(calls))

    def build_inner(self) -> StreamPhase:
        """One register-rotation period of the steady state.

        Planes are expressed relative to the loop variable, which tracks the
        load index of the first load in the group (Fig. 5: loads ``i``,
        ``i+1``, ``i+2`` with stores at ``i-4``, ``i-3``, ``i-2``).
        """
        base = self.head_length()
        calls: List[MacroCall] = []
        for offset in range(self.period):
            load_index = base + offset
            for call in self.calls_for_load(load_index):
                calls.append(
                    MacroCall(
                        call.kind,
                        call.time_step,
                        call.plane - base,
                        call.args,
                        plane_is_relative=True,
                    )
                )
        return StreamPhase("inner", tuple(calls), loop_step=self.period)

    def build_tail(self) -> StreamPhase:
        """Drain of the pipeline: stores for the planes still in flight.

        After the last load (stream position ``S - 1``), planes
        ``S - bT*rad .. S - 1`` of the final time step have not been stored
        yet; the tail phase finishes their computation using the constant
        boundary planes held in the T = 0 register group (Section 4.1).
        """
        calls: List[MacroCall] = []
        for extra in range(1, self.bT * self.radius + 1):
            load_index = self.head_length() + self.period + extra
            for step in range(1, self.bT):
                calls.append(
                    MacroCall("CALC", step, extra, self._calc_args(step, load_index), True)
                )
            calls.append(
                MacroCall("STORE", self.bT, extra - self.bT * self.radius,
                          self._store_args(load_index), True)
            )
        return StreamPhase("tail", tuple(calls))

    def build(self) -> Tuple[StreamPhase, ...]:
        return (self.build_head(), self.build_inner(), self.build_tail())
