"""The :class:`StencilPattern` — AN5D's view of one stencil update.

A pattern captures everything the rest of the framework needs: the update
expression, the set of neighbour offsets it touches, the stencil radius and
shape classification, the data type, and the grid it applies to.

The pattern walks its expression once, when it is made, and every fact the
framework reads off the tree node by node comes from that walk: the grid
reads, the math calls, the FLOP mix and whether it divides.  Shape and
diagonal-access freedom follow from the reads' offsets; associativity,
which needs the top-level sum's terms, is classified term by term on first
use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, List, Tuple

from repro.ir import classify
from repro.ir.expr import BinOp, Call, Const, Expr, GridRead, Offset, walk
from repro.ir.flops import FlopCount

_DTYPE_BYTES = {"float": 4, "double": 8}

#: Monotonically increasing identity tokens for pattern-keyed caches: deep
#: expression trees make structural hashing both costly and recursion-bound,
#: so caches key on this token (holding a reference to the pattern) instead.
_PATTERN_TOKENS = itertools.count()


@dataclass(frozen=True)
class GridSpec:
    """Shape of the stencil's iteration space.

    ``interior`` is the number of updated cells along each spatial dimension
    (the paper's :math:`I_{S_i}`), ordered outermost-to-innermost — i.e. the
    streaming dimension first.  The stored arrays additionally carry a
    boundary ring of ``radius`` constant cells on every side.
    """

    interior: Tuple[int, ...]
    time_steps: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "interior", tuple(int(v) for v in self.interior))
        if any(v <= 0 for v in self.interior):
            raise ValueError("grid dimensions must be positive")
        if self.time_steps < 0:
            raise ValueError("time_steps must be non-negative")

    @property
    def ndim(self) -> int:
        return len(self.interior)

    @property
    def cells(self) -> int:
        total = 1
        for v in self.interior:
            total *= v
        return total

    def padded(self, radius: int) -> Tuple[int, ...]:
        """Array shape including the constant boundary ring."""
        return tuple(v + 2 * radius for v in self.interior)


@dataclass(frozen=True)
class StencilPattern:
    """A single-statement, single-array Jacobi-style stencil update.

    This is the unit AN5D transforms.  The pattern reads a set of neighbours
    of ``array`` from time step ``t`` and writes ``array`` at time step
    ``t + 1`` (double buffered through ``% 2`` in the original C source).
    """

    name: str
    ndim: int
    expr: Expr
    dtype: str = "float"
    array: str = "A"
    source: str | None = None
    #: What the validation walk of ``expr`` finds, kept so that reading it
    #: costs no second walk: every grid read in left-to-right order, the
    #: names of the math calls, the operation mix of one cell update
    #: (:meth:`FlopCount.fused`) and whether the update divides.  The paper
    #: singles out the dividing stencils (j2d5pt, j2d9pt, j2d9pt-gol,
    #: j3d27pt): with ``--use_fast_math`` single-precision division becomes
    #: a multiplication, but NVCC generates inefficient code for
    #: double-precision division, which the timing simulator reproduces.
    reads: List[GridRead] = field(init=False, repr=False, compare=False)
    calls: FrozenSet[str] = field(init=False, repr=False, compare=False)
    flops: FlopCount = field(init=False, repr=False, compare=False)
    has_division: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ndim not in (1, 2, 3):
            raise ValueError(f"unsupported stencil dimensionality {self.ndim}")
        if self.dtype not in _DTYPE_BYTES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        reads: List[GridRead] = []
        calls = set()
        adds = muls = divs = others = 0
        has_division = False
        for node in walk(self.expr):
            if isinstance(node, GridRead):
                reads.append(node)
            elif isinstance(node, BinOp):
                if node.op == "*":
                    muls += 1
                elif node.op == "/":
                    has_division = True
                    # --use_fast_math turns division by a constant into a
                    # multiplication by its reciprocal.
                    if isinstance(node.rhs, Const):
                        muls += 1
                    else:
                        divs += 1
                else:
                    adds += 1
            elif isinstance(node, Call):
                calls.add(node.name)
                others += 1
        object.__setattr__(self, "reads", reads)
        object.__setattr__(self, "calls", frozenset(calls))
        object.__setattr__(self, "flops", FlopCount.fused(adds, muls, divs, others))
        object.__setattr__(self, "has_division", has_division)
        if not reads:
            raise ValueError("stencil expression contains no grid reads")
        for read in reads:
            if read.ndim != self.ndim:
                raise ValueError(
                    f"grid read {read} has {read.ndim} spatial dims, expected {self.ndim}"
                )

    # -- identity ----------------------------------------------------------
    @cached_property
    def cache_key(self) -> int:
        """A process-unique token for keying pattern-derived caches.

        Structural hashing of deep expression trees is O(nodes) per lookup
        and recursion-bound; caches that hold a reference to the pattern can
        key on this token instead.
        """
        return next(_PATTERN_TOKENS)

    # -- geometric properties ---------------------------------------------
    @cached_property
    def offsets(self) -> list[Offset]:
        """Distinct neighbour offsets, sorted lexicographically."""
        return sorted({read.offset for read in self.reads})

    @cached_property
    def radius(self) -> int:
        """The stencil radius ``rad``: the largest absolute offset component."""
        return max(abs(component) for offset in self.offsets for component in offset)

    @property
    def word_bytes(self) -> int:
        return _DTYPE_BYTES[self.dtype]

    @property
    def nword(self) -> int:
        """Number of 4-byte words per cell value (the paper's ``nword``)."""
        return _DTYPE_BYTES[self.dtype] // 4

    # -- classification -----------------------------------------------------
    @cached_property
    def shape(self) -> "classify.StencilShape":
        return classify.classify_shape(self.offsets)

    @property
    def diagonal_access_free(self) -> bool:
        """True when no access involves more than one non-zero offset
        component: the star stencils."""
        return self.shape is classify.StencilShape.STAR

    @cached_property
    def associative(self) -> bool:
        return classify.is_associative(self.expr)

    def describe(self) -> str:
        """A short human-readable description used by the CLI."""
        return (
            f"{self.name}: {self.ndim}D {self.shape.name.lower()} stencil, "
            f"radius {self.radius}, {len(self.offsets)} points, dtype {self.dtype}"
        )
