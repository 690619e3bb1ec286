"""The guard paths of the IR backends that ordinary stencils never take.

The native kernel's NumPy fallback, the bounded kernel and scratch caches,
the rejection of nodes and calls a backend cannot lower, non-finite C
literals, and the private-file checks of the native build cache.
"""

from __future__ import annotations

import os
import stat
import types

import numpy as np
import pytest

from repro.codegen.macros import render_expression
from repro.ir import compile as ir_compile
from repro.ir.compile import (
    CompileError,
    CompiledKernel,
    InterpretedKernel,
    NativeKernel,
    compile_pattern,
    generate_native_source,
)
from repro.ir.expr import BinOp, Call, Const, Expr, GridRead, UnaryOp, evaluate
from repro.ir.stencil import StencilPattern
from repro.stencils.library import load_pattern
from test_ir_native import needs_cc

A = "A"


def _centre(ndim: int = 2) -> GridRead:
    return GridRead(A, (0,) * ndim)


def _grid(shape=(12, 10), seed=5, dtype=np.float64) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.1, 1.0, size=shape).astype(dtype)


def _apply(kernel, src: np.ndarray, radius: int = 1) -> np.ndarray:
    region = tuple(slice(radius, n - radius) for n in src.shape)
    out = np.zeros(tuple(n - 2 * radius for n in src.shape), dtype=src.dtype)
    kernel(src, region, out)
    return out


# -- the native kernel -------------------------------------------------------------------


@needs_cc
def test_native_kernel_hands_arrays_with_no_shared_contiguous_axis_to_numpy():
    pattern = load_pattern("j2d5pt", "double")
    native = NativeKernel(pattern, "double")
    src = _grid((24, 20))[::2, ::2]  # no axis has unit stride
    region = tuple(slice(1, n - 1) for n in src.shape)
    expected = np.empty(tuple(n - 2 for n in src.shape))
    CompiledKernel(pattern, "double")(src, region, expected)
    out = np.empty_like(expected)
    native(src, region, out)
    assert native.fallback_calls == 1
    assert out.tobytes() == expected.tobytes()
    fallback = native._fallback
    native(src, region, out)
    assert native.fallback_calls == 2 and native._fallback is fallback


def test_native_kernel_needs_a_compiler_and_bit_exact_operations(monkeypatch):
    exp = StencilPattern("exp", 2, Call("exp", (_centre(),)), dtype="double")
    with pytest.raises(CompileError, match="call 'exp' not supported by the native backend"):
        generate_native_source(exp, "double")
    assert not ir_compile.native_supported(exp)
    monkeypatch.setattr(ir_compile, "_native_compiler", lambda: "cc")
    with pytest.raises(CompileError, match="uses operations the native backend cannot reproduce"):
        NativeKernel(exp, "double")
    monkeypatch.setattr(ir_compile, "_native_compiler", lambda: None)
    with pytest.raises(CompileError, match="no C compiler available for the native backend"):
        NativeKernel(load_pattern("j2d5pt", "double"), "double")


def test_non_finite_constants_become_c_macros():
    gen = ir_compile._CExprGen(np.float32, "float")
    assert gen._literal(np.float32("nan")) == "(float)NAN"
    assert gen._literal(np.float32("inf")) == "((float)INFINITY)"
    assert gen._literal(np.float32("-inf")) == "(-(float)INFINITY)"
    assert gen._literal(np.float32(0.5)) == "0x1.0000000000000p-1f"


# -- lowering ------------------------------------------------------------------------------


NEGATED = BinOp("+", UnaryOp("-", GridRead(A, (0, 1))), BinOp("*", Const(0.5), _centre()))


@pytest.mark.parametrize(
    "expr", [GridRead(A, (1, -1)), NEGATED], ids=["a-bare-read", "a-negated-read"]
)
def test_reads_alone_and_negated_lower_like_the_interpreter(expr):
    pattern = StencilPattern("edge", 2, expr, dtype="double")
    src = _grid()
    expected = _apply(InterpretedKernel(pattern, "double"), src)
    assert _apply(CompiledKernel(pattern, "double"), src).tobytes() == expected.tobytes()
    if isinstance(expr, GridRead):
        assert np.array_equal(expected, src[2:, :-2])


@needs_cc
def test_a_negated_read_runs_natively_like_numpy():
    pattern = StencilPattern("edge", 2, NEGATED, dtype="double")
    src = _grid()
    expected = _apply(CompiledKernel(pattern, "double"), src)
    assert _apply(NativeKernel(pattern, "double"), src).tobytes() == expected.tobytes()


class _Mystery(Expr):
    """A node no backend knows."""


def test_every_backend_rejects_a_node_it_does_not_know():
    mystery = _Mystery()
    with pytest.raises(CompileError, match="unknown expression node"):
        ir_compile._CodeGen(np.float64).emit(mystery)
    with pytest.raises(CompileError, match="unknown expression node"):
        ir_compile._CExprGen(np.float64, "double").emit(mystery)
    interpreter = InterpretedKernel(types.SimpleNamespace(expr=mystery), "double")
    with pytest.raises(TypeError, match="unknown expression node"):
        interpreter(_grid(), (slice(1, 11), slice(1, 9)), np.zeros((10, 8)))
    with pytest.raises(TypeError, match="unknown expression node"):
        evaluate(mystery, lambda read: 1.0)
    pattern = load_pattern("j2d5pt", "float")
    with pytest.raises(TypeError, match="cannot render expression node"):
        render_expression(pattern, mystery, ["r0", "r1", "r2"], "sm", False)


def test_the_cuda_renderer_spells_negation_and_two_argument_calls():
    expr = BinOp("+", UnaryOp("-", _centre()), Call("max", (GridRead(A, (1, 0)), Const(1.0))))
    pattern = StencilPattern("clamp", 2, expr)
    text = render_expression(pattern, expr, ["r0", "r1", "r2"], "sm", False)
    assert text == "((-(r1)) + max((r2), 1.0f))"


def test_evaluate_subtracts():
    assert evaluate(BinOp("-", Const(3.0), GridRead(A, (0,))), lambda read: 1.0) == 2.0


# -- bounded caches ------------------------------------------------------------------------


def test_a_full_scratch_cache_is_dropped_and_refilled(monkeypatch):
    monkeypatch.setattr(ir_compile, "_SCRATCH_SHAPES_MAX", 1)
    pattern = load_pattern("j2d5pt", "double")
    kernel = CompiledKernel(pattern, "double")
    oracle = InterpretedKernel(pattern, "double")
    for shape in ((12, 10), (9, 14), (12, 10)):
        src = _grid(shape)
        assert _apply(kernel, src).tobytes() == _apply(oracle, src).tobytes()
        assert len(kernel._scratch) == 1


def test_a_full_kernel_cache_is_dropped_and_still_returns_correct_kernels(monkeypatch):
    monkeypatch.setattr(ir_compile, "_KERNEL_CACHE", {})
    monkeypatch.setattr(ir_compile, "_KERNEL_CACHE_MAX", 1)
    src = _grid()
    for name in ("j2d5pt", "j2d9pt-gol", "j2d5pt"):
        pattern = load_pattern(name, "double")
        kernel = compile_pattern(pattern, mode="compiled")
        assert len(ir_compile._KERNEL_CACHE) == 1
        expected = _apply(InterpretedKernel(pattern, "double"), src, pattern.radius)
        assert _apply(kernel, src, pattern.radius).tobytes() == expected.tobytes()


def test_an_unknown_kernel_mode_is_rejected():
    with pytest.raises(ValueError, match="unknown kernel mode 'gpu'"):
        compile_pattern(load_pattern("j2d5pt", "float"), mode="gpu")


# -- the native build cache ------------------------------------------------------------------


def test_the_build_cache_skips_libraries_others_could_have_written(tmp_path):
    assert not ir_compile._is_private(str(tmp_path / "missing.so"), stat.S_IFREG)
    key = "k" * 64
    library = tmp_path / f"{key}.0123456789abcdef.so"
    library.write_bytes(b"not a library")
    os.chmod(library, 0o666)
    assert ir_compile._cached_library(str(tmp_path), key) is None
    assert library.exists()  # not ours to judge, so left alone
