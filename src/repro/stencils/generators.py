"""Synthetic stencil generators.

The star*/box* rows of Table 3, plus the scenario-diversity families that
grow the workload set beyond the paper's fixed benchmark table: anisotropic
stars (per-axis radii), variable-coefficient stars (seeded per-offset
coefficient tables), multi-statement FDTD-style acoustic-wave updates, and
the seeded random-stencil generator behind the ``fuzz`` job kind.

Each generator produces both an IR-level :class:`StencilPattern` (built
directly) and the corresponding C source text (so the same stencils also
exercise the frontend).  Coefficients are deterministic functions of the
offset — or of a named seed — which keeps generated code, IR and NumPy
references consistent: the same name always denotes the same program.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ir.expr import BinOp, Const, Expr, GridRead
from repro.ir.stencil import StencilPattern

_LOOP_VARS = ("i", "j", "k")

#: One ``(offset, coefficient)`` product of a sum-of-products stencil.
Term = Tuple[Tuple[int, ...], float]

#: Historical raw weights at or above this threshold are kept verbatim (the
#: small-radius Table 3 coefficients stay bit-stable); weights below it —
#: which the old formula let reach zero and below — are remapped onto a
#: strictly positive ramp.  The historical formula only produces weights that
#: are multiples of 0.1 (to 6 decimals), so 0.05 cleanly separates "was
#: already positive" (>= ~0.1) from "was zero or negative".
_MIN_RAW_WEIGHT = 0.05


def _coefficient(offset: Tuple[int, ...]) -> float:
    """Deterministic, strictly positive raw weight for one offset.

    Historically this was ``1 + 0.1 * <offset, (1, 2, 3)>``, which crosses
    zero at larger radii: ``box3d8r`` ended up with 88 exactly-zero
    coefficients (dead ``0.0f * A[...]`` terms in the generated C) and a
    signed sum of ~0.59 after "normalisation".  Weights below
    :data:`_MIN_RAW_WEIGHT` now fold onto the ramp ``0.05 / (1 + |w|)``,
    which is strictly positive, strictly decreasing in ``|w|`` (distinct
    offsets keep distinct weights) and bounded away from zero for every
    radius in [1, 8].
    """
    weight = 1.0 + 0.1 * sum(index * (dim + 1) for dim, index in enumerate(offset))
    if weight < _MIN_RAW_WEIGHT:
        weight = _MIN_RAW_WEIGHT / (1.0 + abs(weight))
    return round(weight, 6)


def _anchor_index(offsets: Sequence[Tuple[int, ...]], raw: Sequence[float]) -> int:
    """Index of the centre offset (fallback: the largest raw weight)."""
    centre = (0,) * len(offsets[0])
    for index, offset in enumerate(offsets):
        if offset == centre:
            return index
    return max(range(len(raw)), key=raw.__getitem__)


def _exact_unit_sum(raw: Sequence[float], anchor: int) -> List[float]:
    """Scale positive weights so their signed sum is 1.0 to within 5e-10.

    The scale factor is the builtin ``sum`` in offset order — bit-identical
    to the historical normalisation for the families whose sum already came
    out exact.  Each scaled term is rounded to 9 decimals so it survives the
    ``%.9g`` round trip through C source, and the residual those roundings
    leave is folded into the anchor (centre) coefficient, which is orders of
    magnitude larger than the residual, so no coefficient can reach zero.
    """
    total = sum(raw)
    coefficients = [round(value / total, 9) for value in raw]
    residual = 1.0 - math.fsum(coefficients)
    coefficients[anchor] = round(coefficients[anchor] + residual, 9)
    return coefficients


def normalised_terms(offsets: List[Tuple[int, ...]]) -> List[Term]:
    """The ``(offset, coefficient)`` terms of a formula-weighted stencil.

    Shared by the IR builders and the C emitters, so the model and the
    generated source can never disagree about a coefficient.
    """
    raw = [_coefficient(offset) for offset in offsets]
    return list(zip(offsets, _exact_unit_sum(raw, _anchor_index(offsets, raw))))


def variable_coefficients(offsets: Sequence[Tuple[int, ...]], seed: int) -> List[float]:
    """Seeded per-offset coefficient table (the "variable-coefficient" family).

    Draws uniform weights in [0.1, 2.0] from a generator keyed on the seed
    and the stencil size, then renormalises them to an exact unit sum — the
    same invariant the formula-weighted families guarantee.
    """
    rng = random.Random(f"an5d-vstar:{seed}:{len(offsets)}")
    raw = [round(rng.uniform(0.1, 2.0), 6) for _ in offsets]
    return _exact_unit_sum(raw, _anchor_index(offsets, raw))


def expr_for_terms(terms: Sequence[Term]) -> Expr:
    """The left-associated sum of ``coefficient * read`` products."""
    expr: Optional[Expr] = None
    for offset, coefficient in terms:
        product = BinOp("*", Const(coefficient), GridRead("A", tuple(offset)))
        expr = product if expr is None else BinOp("+", expr, product)
    if expr is None:
        raise ValueError("a stencil needs at least one term")
    return expr


def star_offsets(ndim: int, radius: int) -> List[Tuple[int, ...]]:
    """Offsets of a star stencil: centre plus axis-aligned neighbours."""
    return anisotropic_star_offsets((radius,) * ndim)


def box_offsets(ndim: int, radius: int) -> List[Tuple[int, ...]]:
    """Offsets of a box stencil: the full ``(2*radius + 1)^ndim`` cube."""
    return sorted(itertools.product(range(-radius, radius + 1), repeat=ndim))


def anisotropic_star_offsets(radii: Sequence[int]) -> List[Tuple[int, ...]]:
    """Star offsets with a per-axis radius (``radii[d]`` along axis ``d``)."""
    ndim = len(radii)
    offsets = [tuple([0] * ndim)]
    for dim, radius in enumerate(radii):
        for distance in range(1, radius + 1):
            for sign in (-1, 1):
                offset = [0] * ndim
                offset[dim] = sign * distance
                offsets.append(tuple(offset))
    return sorted(offsets)


def star_stencil(ndim: int, radius: int, dtype: str = "float") -> StencilPattern:
    """Build a synthetic star stencil pattern (``star{ndim}d{radius}r``)."""
    _validate(ndim, radius)
    expr = expr_for_terms(normalised_terms(star_offsets(ndim, radius)))
    return StencilPattern(name=f"star{ndim}d{radius}r", ndim=ndim, expr=expr, dtype=dtype)


def box_stencil(ndim: int, radius: int, dtype: str = "float") -> StencilPattern:
    """Build a synthetic box stencil pattern (``box{ndim}d{radius}r``)."""
    _validate(ndim, radius)
    expr = expr_for_terms(normalised_terms(box_offsets(ndim, radius)))
    return StencilPattern(name=f"box{ndim}d{radius}r", ndim=ndim, expr=expr, dtype=dtype)


def anisotropic_name(radii: Sequence[int]) -> str:
    return f"astar{len(radii)}d{'x'.join(str(radius) for radius in radii)}r"


def anisotropic_star_stencil(
    radii: Sequence[int], dtype: str = "float", name: Optional[str] = None
) -> StencilPattern:
    """Build an anisotropic star stencil (``astar{n}d{r1}x{r2}[x{r3}]r``)."""
    radii = tuple(int(radius) for radius in radii)
    _validate_radii(radii)
    expr = expr_for_terms(normalised_terms(anisotropic_star_offsets(radii)))
    return StencilPattern(
        name=name or anisotropic_name(radii), ndim=len(radii), expr=expr, dtype=dtype
    )


def variable_star_stencil(
    ndim: int,
    radius: int,
    seed: int,
    dtype: str = "float",
    name: Optional[str] = None,
) -> StencilPattern:
    """Build a variable-coefficient star stencil (``vstar{n}d{r}r-s{seed}``)."""
    _validate(ndim, radius)
    offsets = star_offsets(ndim, radius)
    terms = list(zip(offsets, variable_coefficients(offsets, seed)))
    return StencilPattern(
        name=name or f"vstar{ndim}d{radius}r-s{seed}",
        ndim=ndim,
        expr=expr_for_terms(terms),
        dtype=dtype,
    )


def _validate(ndim: int, radius: int) -> None:
    if ndim not in (2, 3):
        raise ValueError("synthetic stencils are 2D or 3D")
    if not 1 <= radius <= 8:
        raise ValueError("radius must lie in [1, 8]")


def _validate_radii(radii: Sequence[int]) -> None:
    if len(radii) not in (2, 3):
        raise ValueError("synthetic stencils are 2D or 3D")
    if any(not 1 <= radius <= 8 for radius in radii):
        raise ValueError("every radius must lie in [1, 8]")


# ---------------------------------------------------------------------------
# FDTD-style multi-statement stencils
# ---------------------------------------------------------------------------

#: Per-axis Laplacian couplings of the acoustic-wave updates.  Their sum must
#: stay below 0.5 (the explicit-Euler stability bound for ``u += w * lap u``)
#: so the iteration remains bounded over the functional tests' time steps.
_FDTD_WEIGHTS = {2: (0.19, 0.23), 3: (0.11, 0.13, 0.17)}


def _axis_offset(axis: int, ndim: int, sign: int) -> Tuple[int, ...]:
    return tuple(sign if dim == axis else 0 for dim in range(ndim))


def _laplacian_expr(axis: int, ndim: int) -> Expr:
    """``A[-1] - 2*A[0] + A[+1]`` along one axis, left-associated like the
    parse of the emitted C."""
    centre = GridRead("A", (0,) * ndim)
    minus = GridRead("A", _axis_offset(axis, ndim, -1))
    plus = GridRead("A", _axis_offset(axis, ndim, 1))
    return BinOp("+", BinOp("-", minus, BinOp("*", Const(2.0), centre)), plus)


def _fdtd_weights(ndim: int, weights: Optional[Sequence[float]]) -> Tuple[float, ...]:
    if ndim not in (2, 3):
        raise ValueError("synthetic stencils are 2D or 3D")
    resolved = tuple(round(float(w), 6) for w in (weights or _FDTD_WEIGHTS[ndim]))
    if len(resolved) != ndim:
        raise ValueError(f"expected {ndim} Laplacian weights, got {len(resolved)}")
    if any(w <= 0 for w in resolved) or sum(resolved) >= 0.5:
        raise ValueError("Laplacian weights must be positive and sum below 0.5")
    return resolved


def fdtd_stencil(
    ndim: int,
    dtype: str = "float",
    weights: Optional[Sequence[float]] = None,
    name: Optional[str] = None,
) -> StencilPattern:
    """Build an FDTD-style acoustic-wave update (``fdtd{ndim}d``).

    The update ``u' = u + sum_d w_d * lap_d(u)`` is what the multi-statement
    C form expresses with one declared temporary per axis; the IR here is the
    fully inlined expression, matching what the frontend produces for the
    corresponding source.
    """
    resolved = _fdtd_weights(ndim, weights)
    expr: Expr = GridRead("A", (0,) * ndim)
    for axis, weight in enumerate(resolved):
        expr = BinOp("+", expr, BinOp("*", Const(weight), _laplacian_expr(axis, ndim)))
    return StencilPattern(name=name or f"fdtd{ndim}d", ndim=ndim, expr=expr, dtype=dtype)


# ---------------------------------------------------------------------------
# C source generation
# ---------------------------------------------------------------------------


def _offset_subscript(var: str, offset: int) -> str:
    if offset == 0:
        return var
    sign = "+" if offset > 0 else "-"
    return f"{var}{sign}{abs(offset)}"


def _literal(value: float, dtype: str) -> str:
    text = f"{value:.9g}"
    if "." not in text and "e" not in text:
        text += ".0"
    return text + ("f" if dtype == "float" else "")


def _loop_header(ndim: int) -> List[str]:
    spatial_vars = _LOOP_VARS[:ndim]
    loops = ["for (t = 0; t < I_T; t++)"]
    for dim, var in enumerate(spatial_vars):
        loops.append(f"{'  ' * (dim + 1)}for ({var} = 1; {var} <= I_S{ndim - dim}; {var}++)")
    return loops


def source_for_terms(terms: Sequence[Term], ndim: int, dtype: str = "float") -> str:
    """Emit the canonical double-buffered C loop nest for a term list."""
    spatial_vars = _LOOP_VARS[:ndim]
    parts = []
    for offset, coefficient in terms:
        subscripts = "".join(
            f"[{_offset_subscript(var, component)}]" for var, component in zip(spatial_vars, offset)
        )
        parts.append(f"{_literal(coefficient, dtype)} * A[t%2]{subscripts}")
    body = "\n        + ".join(parts)
    lhs_subscripts = "".join(f"[{var}]" for var in spatial_vars)
    indent = "  " * (ndim + 1)
    statement = f"{indent}A[(t+1)%2]{lhs_subscripts} = ({body});"
    return "\n".join(_loop_header(ndim) + [statement]) + "\n"


def star_stencil_source(ndim: int, radius: int) -> str:
    """C source of a synthetic star stencil (accepted by the frontend)."""
    _validate(ndim, radius)
    return source_for_terms(normalised_terms(star_offsets(ndim, radius)), ndim)


def box_stencil_source(ndim: int, radius: int) -> str:
    """C source of a synthetic box stencil (accepted by the frontend)."""
    _validate(ndim, radius)
    return source_for_terms(normalised_terms(box_offsets(ndim, radius)), ndim)


def anisotropic_star_stencil_source(radii: Sequence[int]) -> str:
    """C source of an anisotropic star stencil."""
    radii = tuple(int(radius) for radius in radii)
    _validate_radii(radii)
    return source_for_terms(normalised_terms(anisotropic_star_offsets(radii)), len(radii))


def variable_star_stencil_source(ndim: int, radius: int, seed: int) -> str:
    """C source of a variable-coefficient star stencil."""
    _validate(ndim, radius)
    offsets = star_offsets(ndim, radius)
    return source_for_terms(list(zip(offsets, variable_coefficients(offsets, seed))), ndim)


def fdtd_stencil_source(
    ndim: int,
    dtype: str = "float",
    weights: Optional[Sequence[float]] = None,
) -> str:
    """C source of the FDTD-style update — the multi-statement input form.

    One declared scalar temporary per axis holds that axis' Laplacian; the
    assignment combines them.  The frontend inlines the temporaries, so the
    detected IR is bit-equal to :func:`fdtd_stencil`.
    """
    resolved = _fdtd_weights(ndim, weights)
    spatial_vars = _LOOP_VARS[:ndim]
    ctype = "float" if dtype == "float" else "double"

    def access(offset: Tuple[int, ...]) -> str:
        subscripts = "".join(
            f"[{_offset_subscript(var, component)}]" for var, component in zip(spatial_vars, offset)
        )
        return f"A[t%2]{subscripts}"

    centre = (0,) * ndim
    indent = "  " * (ndim + 1)
    body = [f"{indent}{{"]
    for axis in range(ndim):
        body.append(
            f"{indent}  {ctype} lap{axis} = {access(_axis_offset(axis, ndim, -1))}"
            f" - {_literal(2.0, dtype)} * {access(centre)}"
            f" + {access(_axis_offset(axis, ndim, 1))};"
        )
    rhs = access(centre)
    for axis, weight in enumerate(resolved):
        rhs += f" + {_literal(weight, dtype)} * lap{axis}"
    lhs = "A[(t+1)%2]" + "".join(f"[{var}]" for var in spatial_vars)
    body.append(f"{indent}  {lhs} = {rhs};")
    body.append(f"{indent}}}")
    return "\n".join(_loop_header(ndim) + body) + "\n"


# ---------------------------------------------------------------------------
# Seeded random stencils (the fuzz family)
# ---------------------------------------------------------------------------

_FUZZ_FAMILIES = ("star", "box", "astar", "vstar", "fdtd")

_FUZZ_NAME = re.compile(r"fuzz-(\d+)-(\d+)")


def fuzz_name(seed: int, index: int) -> str:
    return f"fuzz-{seed}-{index}"


def parse_fuzz_name(name: str) -> Optional[Tuple[int, int]]:
    """The ``(seed, index)`` of a ``fuzz-{seed}-{index}`` name, else None."""
    match = _FUZZ_NAME.fullmatch(name)
    return (int(match.group(1)), int(match.group(2))) if match else None


@dataclass(frozen=True)
class FuzzStencil:
    """One seeded random stencil; the name fully determines the program."""

    name: str
    seed: int
    index: int
    family: str
    ndim: int
    radii: Tuple[int, ...]
    dtype: str
    terms: Tuple[Term, ...] = ()
    weights: Tuple[float, ...] = ()

    @property
    def radius(self) -> int:
        return max(self.radii)

    def build_pattern(self, dtype: Optional[str] = None) -> StencilPattern:
        """The directly-built IR (no frontend) of this stencil."""
        dtype = dtype or self.dtype
        if self.family == "fdtd":
            return fdtd_stencil(self.ndim, dtype=dtype, weights=self.weights, name=self.name)
        return StencilPattern(
            name=self.name,
            ndim=self.ndim,
            expr=expr_for_terms(self.terms),
            dtype=dtype,
        )

    @property
    def source(self) -> str:
        if self.family == "fdtd":
            return fdtd_stencil_source(self.ndim, dtype=self.dtype, weights=self.weights)
        return source_for_terms(self.terms, self.ndim, self.dtype)

    def describe(self) -> str:
        radii = "x".join(str(radius) for radius in self.radii)
        return f"seeded {self.family} {self.ndim}D stencil (radii {radii}, {self.dtype})"


def fuzz_stencil(seed: int, index: int) -> FuzzStencil:
    """Draw one reproducible random stencil from a named seed.

    Every choice — dimensionality, family, radii, dtype, coefficients —
    comes from a ``random.Random`` keyed on ``(seed, index)``, so
    ``fuzz-7-3`` names the same program on every machine and every run.
    Radii are capped so the differential checks (which execute the stencil
    functionally on the verify grids) stay fast.
    """
    rng = random.Random(f"an5d-fuzz:{seed}:{index}")
    ndim = rng.choice((2, 3))
    family = rng.choice(_FUZZ_FAMILIES)
    dtype = rng.choice(("float", "double"))
    name = fuzz_name(seed, index)
    if family == "fdtd":
        bound = 0.5 / ndim
        weights = tuple(round(rng.uniform(0.2 * bound, 0.9 * bound), 6) for _ in range(ndim))
        return FuzzStencil(name, seed, index, family, ndim, (1,) * ndim, dtype, weights=weights)
    if family == "star":
        radius = rng.randint(1, 3 if ndim == 3 else 4)
        radii = (radius,) * ndim
        terms = tuple(normalised_terms(star_offsets(ndim, radius)))
    elif family == "box":
        radius = rng.randint(1, 2 if ndim == 3 else 3)
        radii = (radius,) * ndim
        terms = tuple(normalised_terms(box_offsets(ndim, radius)))
    elif family == "astar":
        radii = tuple(rng.randint(1, 3) for _ in range(ndim))
        terms = tuple(normalised_terms(anisotropic_star_offsets(radii)))
    else:  # vstar
        radius = rng.randint(1, 2 if ndim == 3 else 3)
        radii = (radius,) * ndim
        offsets = star_offsets(ndim, radius)
        terms = tuple(zip(offsets, variable_coefficients(offsets, rng.randint(0, 10**6))))
    return FuzzStencil(name, seed, index, family, ndim, radii, dtype, terms=terms)
