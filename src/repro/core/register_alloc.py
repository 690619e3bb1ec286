"""Register allocation strategies (Section 4.2.1, Fig. 3 (b)).

Previous N.5D implementations (STENCILGEN and friends) *shift* cell values
through registers when a new sub-plane arrives: every register is copied into
its neighbour, which costs ``1 + 2*rad`` register moves per sub-plane update
and inflates register pressure.  AN5D instead keeps each sub-plane value in a
*fixed* register and rotates the *roles* of registers from one streaming
iteration to the next — the rotation is encoded statically in the macro
argument order (Fig. 5), so at run time only one register is written per
update.  The rotation has ``2*rad + 1`` distinct shifts, so the kernel
scheduler (:mod:`repro.core.plan`) resolves it once per (register group,
shift) into a table of register names and looks every macro's arguments up
there.

Both strategies are implemented here: the fixed one drives AN5D code
generation, the shifting one models STENCILGEN for the baseline comparison
(register movement counts and register-pressure estimates feed Fig. 7).
"""

from __future__ import annotations

from typing import Tuple


class RegisterAllocation:
    """Common interface of the two allocation strategies."""

    def __init__(self, time_block: int, radius: int) -> None:
        if time_block < 1 or radius < 1:
            raise ValueError("time_block and radius must be positive")
        self.time_block = time_block
        self.radius = radius
        #: registers (sub-plane slots) needed per time step
        self.slots_per_step = 2 * radius + 1

    # -- interface ------------------------------------------------------------
    @property
    def registers_per_thread(self) -> int:
        """Sub-plane registers held per thread (excluding scratch/index regs).

        One register group per produced time step T = 0 .. bT - 1; the final
        time step writes directly to global memory, so it needs no group.
        """
        return self.time_block * self.slots_per_step


class FixedRegisterAllocation(RegisterAllocation):
    """AN5D's fixed allocation: one store per sub-plane update.

    Registers ``reg_T_0 .. reg_T_{2*rad}`` hold the ``1 + 2*rad`` sub-planes
    of time step ``T`` that the next time step's computation reads.  When the
    stream advances, the register whose sub-plane is no longer needed is
    overwritten with the newly produced value; which physical register that is
    rotates with the streaming index, and the rotation is resolved statically
    into macro arguments: the value produced at iteration ``i`` overwrites
    slot ``rotation(i)[-1]``.
    """

    def moves_per_update(self) -> int:
        """Register data movements per sub-plane update."""
        return 1

    def rotation(self, iteration: int) -> Tuple[int, ...]:
        """Mapping from logical sub-plane position to physical slot.

        ``rotation(i)[k]`` is the physical slot holding the sub-plane at
        logical depth ``k`` (0 = oldest, ``2*rad`` = newest) during streaming
        iteration ``i``.  The mapping cycles with period ``2*rad + 1``.
        """
        period = self.slots_per_step
        shift = iteration % period
        return tuple((shift + k) % period for k in range(period))


class ShiftingRegisterAllocation(RegisterAllocation):
    """STENCILGEN-style shifting allocation (the prior art baseline).

    Every sub-plane update shifts all ``2*rad`` retained values down by one
    slot and writes the new value into the top slot: ``1 + 2*rad`` register
    writes per update.  Register pressure is also higher in practice because
    the shifting chains extend live ranges (modelled in
    :mod:`repro.model.registers`).
    """

    def moves_per_update(self) -> int:
        """Register data movements per sub-plane update."""
        return 1 + 2 * self.radius

    def rotation(self, iteration: int) -> Tuple[int, ...]:
        """Shifting keeps logical positions pinned to physical slots."""
        return tuple(range(self.slots_per_step))
