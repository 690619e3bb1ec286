"""Blocking configuration for the AN5D transformation.

A configuration fixes everything the kernel generator needs to know at
compile time: the temporal blocking degree ``bT``, the spatial block sizes
``bS_i`` of the non-streaming dimensions, the streaming block length ``hS_N``
(``None`` means the streaming dimension is not divided), and the optimization
switches of Section 4.2/4.3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.ir.stencil import StencilPattern

#: Hardware limits of the NVIDIA GPUs the paper targets (Section 6.3).
MAX_REGISTERS_PER_THREAD = 255
MAX_THREADS_PER_BLOCK = 1024


class ConfigurationError(ValueError):
    """Raised when a blocking configuration is invalid for a stencil."""


@dataclass(frozen=True)
class BlockingConfig:
    """A full AN5D parameter set for one stencil kernel.

    Attributes
    ----------
    bT:
        Temporal blocking degree — the number of combined time steps.
    bS:
        Spatial block sizes of the blocked (non-streaming) dimensions,
        innermost dimension last.  For 2D stencils this is a single value
        (1.5D blocking); for 3D stencils two values (2.5D blocking).
    hS:
        Length of a stream block when the streaming dimension is divided
        (Section 4.2.3); ``None`` leaves the dimension undivided.
    register_limit:
        Value passed to ``-maxrregcount`` (``None`` = no limit).
    double_buffer:
        Use two shared-memory buffers to skip the second block
        synchronisation (Section 4.2.2).
    star_opt / associative_opt:
        Force-enable/disable the diagonal-access-free and associative
        stencil optimizations; ``None`` selects them automatically from the
        stencil classification.
    """

    bT: int
    bS: Tuple[int, ...]
    hS: Optional[int] = None
    register_limit: Optional[int] = None
    double_buffer: bool = True
    star_opt: Optional[bool] = None
    associative_opt: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bS", tuple(int(v) for v in self.bS))
        if self.bT < 1:
            raise ConfigurationError("bT must be at least 1")
        if not self.bS:
            raise ConfigurationError("at least one blocked spatial dimension is required")
        if any(v < 1 for v in self.bS):
            raise ConfigurationError("spatial block sizes must be positive")
        if self.hS is not None and self.hS < 1:
            raise ConfigurationError("hS must be positive when given")
        if self.register_limit is not None and not (
            16 <= self.register_limit <= MAX_REGISTERS_PER_THREAD
        ):
            raise ConfigurationError(
                f"register limit must lie in [16, {MAX_REGISTERS_PER_THREAD}]"
            )

    # -- derived quantities ---------------------------------------------------
    @property
    def nthr(self) -> int:
        """Threads per block: one thread per cell of the spatial block."""
        total = 1
        for v in self.bS:
            total *= v
        return total

    def halo_per_side(self, radius: int) -> int:
        """Halo width (cells) on each side of each blocked dimension."""
        return self.bT * radius

    def compute_region(self, radius: int) -> Tuple[int, ...]:
        """Non-overlapped (stored) cells per blocked dimension."""
        return tuple(v - 2 * self.bT * radius for v in self.bS)

    def with_register_limit(self, limit: Optional[int]) -> "BlockingConfig":
        return replace(self, register_limit=limit)

    def with_bT(self, bT: int) -> "BlockingConfig":
        return replace(self, bT=bT)

    # -- validation -------------------------------------------------------------
    def validate(self, pattern: StencilPattern) -> None:
        """Check the configuration against a stencil pattern.

        Raises :class:`ConfigurationError` when the configuration cannot
        possibly produce a correct or launchable kernel.
        """
        expected_blocked = pattern.ndim - 1
        if len(self.bS) != expected_blocked:
            raise ConfigurationError(
                f"{pattern.ndim}D stencil needs {expected_blocked} blocked dimension(s), "
                f"got bS of length {len(self.bS)}"
            )
        if self.nthr > MAX_THREADS_PER_BLOCK:
            raise ConfigurationError(
                f"thread block of {self.nthr} threads exceeds the {MAX_THREADS_PER_BLOCK} limit"
            )
        radius = pattern.radius
        for size, region in zip(self.bS, self.compute_region(radius)):
            if region <= 0:
                raise ConfigurationError(
                    f"block size {size} leaves no compute region for bT={self.bT}, rad={radius}"
                )

    def is_valid(self, pattern: StencilPattern) -> bool:
        try:
            self.validate(pattern)
        except ConfigurationError:
            return False
        return True

    # -- optimization selection ----------------------------------------------
    def use_star_optimization(self, pattern: StencilPattern) -> bool:
        """Diagonal-access-free optimization: registers replace shared memory
        for the upper/lower sub-planes (Section 4.1)."""
        if self.star_opt is not None:
            return self.star_opt
        return pattern.diagonal_access_free

    def use_associative_optimization(self, pattern: StencilPattern) -> bool:
        """Associative (partial-summation) optimization for box-like stencils."""
        if self.associative_opt is not None:
            return self.associative_opt
        return pattern.associative and not pattern.diagonal_access_free

    def describe(self) -> str:
        hs = str(self.hS) if self.hS is not None else "full"
        regs = str(self.register_limit) if self.register_limit is not None else "-"
        bs = "x".join(str(v) for v in self.bS)
        return f"bT={self.bT} bS={bs} hS={hs} regs={regs}"


def sconf_configuration(pattern: StencilPattern) -> BlockingConfig:
    """The paper's ``Sconf`` configuration (Section 6.3): STENCILGEN's
    published parameters, and the default of
    :class:`~repro.baselines.stencilgen.StencilGenBaseline`.  ``bT = 4``
    everywhere; 2D: ``bS = (128,)``, ``hS = 128`` and the associative
    optimization disabled; 3D: ``bS = (32, 32)`` and no stream division.
    """
    if pattern.ndim == 2:
        return BlockingConfig(bT=4, bS=(128,), hS=128, associative_opt=False)
    return BlockingConfig(bT=4, bS=(32, 32), hS=None)
