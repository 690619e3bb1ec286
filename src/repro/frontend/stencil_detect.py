"""Stencil pattern detection — the analogue of AN5D's dedicated PPCG backend.

AN5D reads the stencil out of PPCG's normalised polyhedral representation.
This frontend needs no polyhedral library: it normalises the stencil itself,
straight from the parsed C loop nest, under the restrictions that Section
4.3.3 of the paper lists:

* the statement describing array accesses is a singleton with one store, and
  the read addresses are static,
* each dimension (time and space) is iterated by exactly one loop, with
  multi-dimensional array addressing,
* spatial iterations are data independent, the time loop is outermost, and
  the loop right after the time loop is the streaming dimension.

We additionally accept bodies of the form "scalar declarations followed by
the single assignment" (the multi-statement input form of e.g. FDTD-style
acoustic-wave updates): each declared temporary is lowered once and inlined
at its uses, so the detected IR is the same single-statement pattern AN5D
would see after forward substitution.

The result is a :class:`repro.ir.StencilPattern` together with the symbolic
loop bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.frontend import c_ast
from repro.frontend.cparser import parse_program
from repro.ir.expr import CALL_ARITY, BinOp, Call, Const, Expr, GridRead, UnaryOp
from repro.ir.stencil import StencilPattern


class StencilDetectionError(ValueError):
    """Raised when the input program is not a supported stencil."""


@dataclass(frozen=True)
class LoopInfo:
    """One loop of the detected nest: its index variable and symbolic bounds."""

    var: str
    lower: str
    upper: str
    inclusive: bool


@dataclass(frozen=True)
class DetectedStencil:
    """The result of stencil detection.

    ``pattern`` is the IR-level stencil; ``time_loop`` and ``spatial_loops``
    record the symbolic iteration bounds so host code generation can keep the
    grid size a runtime parameter.
    """

    pattern: StencilPattern
    time_loop: LoopInfo
    spatial_loops: Tuple[LoopInfo, ...]

    @property
    def ndim(self) -> int:
        return len(self.spatial_loops)


def _bound_to_str(expr: c_ast.CExpr) -> str:
    if isinstance(expr, c_ast.Identifier):
        return expr.name
    if isinstance(expr, c_ast.NumberLiteral):
        return str(int(expr.value)) if not expr.is_float else str(expr.value)
    if isinstance(expr, c_ast.BinaryExpr):
        return f"({_bound_to_str(expr.lhs)} {expr.op} {_bound_to_str(expr.rhs)})"
    if isinstance(expr, c_ast.UnaryExpr):
        return f"({expr.op}{_bound_to_str(expr.operand)})"
    raise StencilDetectionError(f"unsupported loop bound expression {expr!r}")


def _loop_info(loop: c_ast.ForLoop) -> LoopInfo:
    return LoopInfo(
        var=loop.var,
        lower=_bound_to_str(loop.lower),
        upper=_bound_to_str(loop.upper),
        inclusive=loop.inclusive,
    )


def _is_modulo_two(expr: c_ast.CExpr) -> bool:
    return (
        isinstance(expr, c_ast.BinaryExpr)
        and expr.op == "%"
        and isinstance(expr.rhs, c_ast.NumberLiteral)
        and expr.rhs.value == 2
    )


def _time_index_offset(expr: c_ast.CExpr, time_var: str) -> int:
    """Interpret a ``(t + k) % 2`` buffer index; return ``k`` (0 or 1)."""
    if not _is_modulo_two(expr):
        raise StencilDetectionError(
            "array time index must be double buffered through '% 2'"
        )
    base = expr.lhs
    if isinstance(base, c_ast.Identifier) and base.name == time_var:
        return 0
    if (
        isinstance(base, c_ast.BinaryExpr)
        and base.op == "+"
        and isinstance(base.lhs, c_ast.Identifier)
        and base.lhs.name == time_var
        and isinstance(base.rhs, c_ast.NumberLiteral)
    ):
        return int(base.rhs.value)
    raise StencilDetectionError("time index must be 't % 2' or '(t + 1) % 2'")


def _spatial_offset(expr: c_ast.CExpr, var: str) -> int:
    """Interpret a spatial subscript ``var``, ``var + c`` or ``var - c``."""
    if isinstance(expr, c_ast.Identifier):
        if expr.name != var:
            raise StencilDetectionError(
                f"subscript variable {expr.name!r} does not match loop variable {var!r}"
            )
        return 0
    if isinstance(expr, c_ast.BinaryExpr) and expr.op in ("+", "-"):
        lhs, rhs = expr.lhs, expr.rhs
        if isinstance(lhs, c_ast.Identifier) and isinstance(rhs, c_ast.NumberLiteral):
            if lhs.name != var:
                raise StencilDetectionError(
                    f"subscript variable {lhs.name!r} does not match loop variable {var!r}"
                )
            magnitude = int(rhs.value)
            return magnitude if expr.op == "+" else -magnitude
    raise StencilDetectionError(f"subscript must be affine in the loop variable: {expr!r}")


def _collect_float_suffix(expr: c_ast.CExpr) -> bool:
    """True when any literal in the expression carries an ``f`` suffix.

    Walks an explicit stack, so long operator chains cost no recursion depth.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, c_ast.NumberLiteral):
            if node.text.rstrip().lower().endswith("f"):
                return True
        elif isinstance(node, c_ast.BinaryExpr):
            stack += (node.lhs, node.rhs)
        elif isinstance(node, c_ast.UnaryExpr):
            stack.append(node.operand)
        elif isinstance(node, c_ast.CallExpr):
            stack += node.args
    return False


class _ExpressionLowerer:
    """Lowers a C expression to the stencil IR, resolving array accesses."""

    def __init__(self, array: str, time_var: str, spatial_vars: List[str]) -> None:
        self.array = array
        self.time_var = time_var
        self.spatial_vars = spatial_vars
        self.env: Dict[str, Expr] = {}

    def define(self, name: str, value: c_ast.CExpr) -> None:
        """Bind a declared scalar temporary to its lowered expression.

        Later temporaries may reference earlier ones; uses are inlined, so
        the resulting pattern is the forward-substituted single statement.
        """
        if name == self.time_var or name in self.spatial_vars:
            raise StencilDetectionError(
                f"temporary {name!r} shadows a loop variable"
            )
        if name in self.env:
            raise StencilDetectionError(f"temporary {name!r} is declared twice")
        self.env[name] = self.lower(value)

    def lower(self, expr: c_ast.CExpr) -> Expr:
        """Lower ``expr``; the left-deep spine of binary operators is walked
        in a loop, so a long ``a + b + c ...`` chain costs no stack depth."""
        spine: List[c_ast.BinaryExpr] = []
        while isinstance(expr, c_ast.BinaryExpr):
            if expr.op not in ("+", "-", "*", "/"):
                raise StencilDetectionError(
                    f"operator {expr.op!r} is not allowed in a stencil expression"
                )
            spine.append(expr)
            expr = expr.lhs
        lowered = self._lower_leaf(expr)
        for node in reversed(spine):
            lowered = BinOp(node.op, lowered, self.lower(node.rhs))
        return lowered

    def _lower_leaf(self, expr: c_ast.CExpr) -> Expr:
        """Lower the node at the bottom of a spine: anything but a binary operator."""
        if isinstance(expr, c_ast.NumberLiteral):
            return Const(expr.value)
        if isinstance(expr, c_ast.ArrayAccess):
            return self._lower_access(expr)
        if isinstance(expr, c_ast.UnaryExpr):
            if expr.op != "-":
                raise StencilDetectionError(f"unsupported unary operator {expr.op!r}")
            return UnaryOp("-", self.lower(expr.operand))
        if isinstance(expr, c_ast.CallExpr):
            if expr.name not in CALL_ARITY:
                raise StencilDetectionError(f"unsupported call {expr.name!r}")
            args = tuple(self.lower(a) for a in expr.args)
            try:
                return Call(expr.name, args)
            except ValueError as error:  # wrong argument count
                raise StencilDetectionError(str(error)) from None
        # The parser makes no other leaf than an identifier.
        bound = self.env.get(expr.name)
        if bound is not None:
            return bound
        raise StencilDetectionError(
            f"free scalar variable {expr.name!r}: coefficients must be literal constants"
        )

    def _lower_access(self, access: c_ast.ArrayAccess) -> GridRead:
        if access.array != self.array:
            raise StencilDetectionError(
                f"stencil must read and write a single array; found {access.array!r}"
            )
        expected = 1 + len(self.spatial_vars)
        if len(access.indices) != expected:
            raise StencilDetectionError(
                f"array access has {len(access.indices)} subscripts, expected {expected}"
            )
        if _time_index_offset(access.indices[0], self.time_var) != 0:
            raise StencilDetectionError("right-hand side must read the previous time step")
        offsets = tuple(
            _spatial_offset(index, var)
            for index, var in zip(access.indices[1:], self.spatial_vars)
        )
        return GridRead(self.array, offsets)


def detect_stencil(
    program: c_ast.Program,
    name: str = "stencil",
    dtype: str | None = None,
    source: str | None = None,
) -> DetectedStencil:
    """Detect the stencil pattern in a parsed program.

    ``dtype`` overrides data-type inference (which otherwise keys off ``f``
    literal suffixes, matching how the benchmarks are written).
    """
    loops = program.loops
    if len(loops) != 1:
        raise StencilDetectionError(
            f"expected exactly one top-level loop nest, found {len(loops)}"
        )
    nest = c_ast.nest_loops(loops[0])
    if len(nest) < 3:
        raise StencilDetectionError(
            "expected a time loop plus at least two spatial loops"
        )
    body = c_ast.innermost_body(nest[-1])
    if not body or not isinstance(body[-1], c_ast.Assignment):
        raise StencilDetectionError(
            "the loop nest body must be scalar declarations followed by a single assignment"
        )
    declarations: List[c_ast.Declaration] = []
    for statement in body[:-1]:
        if not isinstance(statement, c_ast.Declaration):
            raise StencilDetectionError(
                "the loop nest body must be scalar declarations followed by a single assignment"
            )
        if statement.value is None:
            raise StencilDetectionError(
                f"declared temporary {statement.name!r} must be initialised"
            )
        declarations.append(statement)
    assignment = body[-1]
    if assignment.op != "=":
        raise StencilDetectionError("compound assignment is not a Jacobi stencil update")

    time_loop, *spatial = nest
    spatial_vars = [loop.var for loop in spatial]
    if len(set(spatial_vars)) != len(spatial_vars) or time_loop.var in spatial_vars:
        raise StencilDetectionError("loop variables must be distinct")

    target = assignment.target
    if len(target.indices) != 1 + len(spatial_vars):
        raise StencilDetectionError("store must index the time buffer plus every spatial dim")
    if _time_index_offset(target.indices[0], time_loop.var) != 1:
        raise StencilDetectionError("store must write the next time step: '(t + 1) % 2'")
    for index, var in zip(target.indices[1:], spatial_vars):
        if _spatial_offset(index, var) != 0:
            raise StencilDetectionError("store must target the centre cell of each dimension")

    lowerer = _ExpressionLowerer(target.array, time_loop.var, spatial_vars)
    for declaration in declarations:
        lowerer.define(declaration.name, declaration.value)
    expr = lowerer.lower(assignment.value)

    if dtype is None:
        values = [declaration.value for declaration in declarations] + [assignment.value]
        has_float_literal = any(_collect_float_suffix(value) for value in values)
        has_float_temporary = any(d.dtype == "float" for d in declarations)
        dtype = "float" if has_float_literal or has_float_temporary else "double"

    pattern = StencilPattern(
        name=name,
        ndim=len(spatial_vars),
        expr=expr,
        dtype=dtype,
        array=target.array,
        source=source,
    )
    return DetectedStencil(
        pattern=pattern,
        time_loop=_loop_info(time_loop),
        spatial_loops=tuple(_loop_info(loop) for loop in spatial),
    )


def parse_stencil(source: str, name: str = "stencil", dtype: str | None = None) -> DetectedStencil:
    """Parse C source and detect its stencil pattern in one step."""
    program = parse_program(source)
    return detect_stencil(program, name=name, dtype=dtype, source=source)
