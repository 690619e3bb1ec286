"""Tests for the compiled-expression engine and the rewritten executors.

The contract under test: every kernel engine (fused NumPy, native C,
interpreter) is *bit-identical*, and the double-buffered, dependency-cone
tile loop of :class:`BlockedStencilExecutor` produces byte-for-byte the same
results as the seed implementation (full-region interpretation with a copy
per combined time step), which is replicated inline here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import BlockingConfig
from repro.ir.compile import (
    _CALL_NUMPY,
    CompileError,
    CompiledKernel,
    InterpretedKernel,
    compile_pattern,
    native_supported,
    _auto_kernel,
    _native_compiler,
)
from repro.ir.expr import BinOp, Call, Const, GridRead, UnaryOp
from repro.ir.stencil import GridSpec
from repro.sim.executor import BlockedStencilExecutor
from repro.stencils.library import BENCHMARKS, load_pattern
from repro.stencils.reference import (
    ReferenceExecutor,
    make_initial_grid,
    max_relative_error,
    numpy_dtype,
)

ALL_BENCHMARKS = sorted(BENCHMARKS)
DTYPES = ("float", "double")


def _sample_region(pattern, dtype, seed=0):
    rng = np.random.default_rng(seed)
    rad = pattern.radius
    shape = tuple(10 + 2 * rad for _ in range(pattern.ndim))
    src = rng.uniform(0.1, 1.0, size=shape).astype(numpy_dtype(dtype))
    region = tuple(slice(rad, dim - rad) for dim in shape)
    return src, region


# ---------------------------------------------------------------------------
# Property: every engine is bit-identical to the interpreter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_compiled_engine_bit_identical_to_interpreter(name, dtype):
    pattern = load_pattern(name, dtype)
    src, region = _sample_region(pattern, dtype)
    out_shape = tuple(s.stop - s.start for s in region)

    interpreted = np.empty(out_shape, dtype=src.dtype)
    compile_pattern(pattern, mode="interpreter")(src, region, interpreted)

    compiled = np.empty(out_shape, dtype=src.dtype)
    compile_pattern(pattern, mode="compiled")(src, region, compiled)
    assert np.array_equal(compiled, interpreted)


#: Representative shapes for the (toolchain-build-per-kernel) native engine:
#: a 3D star, a 3D box, a 2D second-order star and the sqrt/division stencil.
NATIVE_SPOT_CHECKS = ("star3d1r", "j3d27pt", "j2d9pt", "gradient2d")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", NATIVE_SPOT_CHECKS)
def test_native_engine_bit_identical_to_interpreter(name, dtype):
    pattern = load_pattern(name, dtype)
    if _native_compiler() is None or not native_supported(pattern):
        pytest.skip("no native toolchain available")
    src, region = _sample_region(pattern, dtype)
    out_shape = tuple(s.stop - s.start for s in region)
    interpreted = np.empty(out_shape, dtype=src.dtype)
    compile_pattern(pattern, mode="interpreter")(src, region, interpreted)
    native = np.empty(out_shape, dtype=src.dtype)
    compile_pattern(pattern, mode="native")(src, region, native)
    assert np.array_equal(native, interpreted)


def _stream_last_stack(pattern, dtype, count=3, seed=0):
    """A ``(count, ...)`` tile stack whose memory keeps logical axis 0 (the
    streaming axis) innermost, as the blocked executor lays it out, and a
    target region."""
    rng = np.random.default_rng(seed)
    rad = pattern.radius
    shape = tuple(9 + 2 * rad + d for d in range(pattern.ndim))
    memory = (count,) + shape[1:] + shape[:1]
    src = np.moveaxis(rng.uniform(0.1, 1.0, size=memory).astype(numpy_dtype(dtype)), -1, 1)
    return src, tuple(slice(rad, dim - rad) for dim in shape)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ("j2d5pt", "box2d2r", "star3d2r", "j3d27pt"))
def test_engines_bit_identical_on_stream_last_stacks(name, dtype):
    pattern = load_pattern(name, dtype)
    src, region = _stream_last_stack(pattern, dtype)
    assert src.strides[1] == src.itemsize
    target = (slice(None),) + region
    modes = ["interpreter", "compiled"]
    if _native_compiler() is not None and native_supported(pattern):
        modes.append("native")
    outputs = {}
    for mode in modes:
        out = np.zeros_like(src)[target]  # same memory order as src
        compile_pattern(pattern, mode=mode)(src, region, out)
        outputs[mode] = out
    # Each stack member equals an unstacked, C-ordered call on its own copy.
    expected = np.empty(outputs["interpreter"].shape, dtype=src.dtype)
    for index in range(src.shape[0]):
        compile_pattern(pattern, mode="interpreter")(
            np.ascontiguousarray(src[index]), region, expected[index]
        )
    for mode, out in outputs.items():
        assert np.array_equal(out, expected), mode
    if "native" in outputs:
        assert compile_pattern(pattern, mode="native").fallback_calls == 0


@pytest.mark.parametrize(
    "name,dtype,interior,config",
    [
        ("box2d2r", "double", (70, 50), BlockingConfig(bT=2, bS=(32,))),
        ("j2d9pt", "float", (64, 48), BlockingConfig(bT=3, bS=(24,), hS=20)),
        ("j3d27pt", "float", (20, 36, 28), BlockingConfig(bT=3, bS=(16, 16))),
        ("star3d2r", "double", (24, 30, 30), BlockingConfig(bT=2, bS=(16, 16), hS=10)),
    ],
)
def test_blocked_executor_kernel_modes_agree_bitwise(name, dtype, interior, config):
    pattern = load_pattern(name, dtype)
    grid = GridSpec(interior, 5)
    initial = make_initial_grid(pattern, grid, seed=11)
    modes = ["interpreter", "compiled"]
    if _native_compiler() is not None and native_supported(pattern):
        modes.append("native")
    results = {
        mode: BlockedStencilExecutor(pattern, grid, config, kernel_mode=mode).run(initial)
        for mode in modes
    }
    for mode in modes[1:]:
        assert np.array_equal(results[mode], results["interpreter"]), mode
    if "native" in modes:
        assert compile_pattern(pattern, mode="native").fallback_calls == 0


def test_compiled_kernel_reuses_scratch_and_cache():
    pattern = load_pattern("j2d5pt", "float")
    assert compile_pattern(pattern, mode="compiled") is compile_pattern(
        pattern, mode="compiled"
    )
    kernel = CompiledKernel(pattern, "float")
    src, region = _sample_region(pattern, "float")
    out = np.empty(tuple(s.stop - s.start for s in region), dtype=np.float32)
    kernel(src, region, out)
    scratch_before = kernel.scratch_for(out)
    kernel(src, region, out)
    assert kernel.scratch_for(out) is scratch_before
    assert kernel.num_scratch >= 1
    assert "def _stencil_kernel" in kernel.source


@pytest.mark.parametrize("mode", ["auto", "compiled", "interpreter"])
def test_every_engine_rejects_an_unknown_dtype(mode):
    # "auto" has no interpreter fallback: no valid pattern needs one.
    engine = {
        "auto": lambda pattern, dtype: _auto_kernel(pattern, dtype, 10**9, None),
        "compiled": CompiledKernel,
        "interpreter": InterpretedKernel,
    }
    with pytest.raises(CompileError, match="unsupported dtype"):
        engine[mode](load_pattern("j2d5pt"), "half")


# ---------------------------------------------------------------------------
# Regression: blocked executor output is unchanged vs. the seed behaviour
# ---------------------------------------------------------------------------


def _seed_eval(pattern, dtype, local, region):
    """Verbatim logic of the seed's _evaluate_region."""

    def shifted(offset):
        return local[tuple(slice(s.start + o, s.stop + o) for s, o in zip(region, offset))]

    def ev(expr):
        if isinstance(expr, Const):
            return np.asarray(expr.value, dtype=dtype)
        if isinstance(expr, GridRead):
            return shifted(expr.offset)
        if isinstance(expr, BinOp):
            lhs, rhs = ev(expr.lhs), ev(expr.rhs)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            return lhs / rhs
        if isinstance(expr, UnaryOp):
            return -ev(expr.operand)
        if isinstance(expr, Call):
            return _CALL_NUMPY[expr.name](*[ev(a) for a in expr.args])
        raise TypeError(f"unknown expression node {expr!r}")

    return ev(pattern.expr).astype(dtype)


def _seed_blocked_run(executor: BlockedStencilExecutor, initial, time_steps):
    """Verbatim logic of the seed's _run_tile / launch / run."""
    pattern, rad, dtype = executor.pattern, executor.radius, executor.dtype
    current = initial.astype(dtype, copy=True)
    for launch_steps in executor.launch_schedule(time_steps):
        destination = current.copy()
        for tile in executor.tiles(launch_steps):
            local = current[tuple(slice(lo, hi) for lo, hi in tile.load)].astype(
                dtype, copy=True
            )
            mask = [
                (max(lo, rad) - lo, min(hi, dim - rad) - lo)
                for (lo, hi), dim in zip(tile.load, current.shape)
            ]
            for _ in range(launch_steps):
                updated = local.copy()
                region = tuple(
                    slice(max(lo, rad), min(hi, local.shape[d] - rad))
                    for d, (lo, hi) in enumerate(mask)
                )
                if any(s.start >= s.stop for s in region):
                    break
                updated[region] = _seed_eval(pattern, dtype, local, region)
                local = updated
            store = tuple(slice(lo, hi) for lo, hi in tile.store)
            destination[store] = local[
                tuple(
                    slice(s_lo - l_lo, s_hi - l_lo)
                    for (s_lo, s_hi), (l_lo, _) in zip(tile.store, tile.load)
                )
            ]
        current = destination
    return current


@pytest.mark.parametrize(
    "name,dtype,interior,config,time_steps",
    [
        ("star3d1r", "float", (24, 24, 24), BlockingConfig(bT=4, bS=(12, 12)), 9),
        ("star3d1r", "double", (16, 20, 20), BlockingConfig(bT=2, bS=(10, 10), hS=8), 5),
        ("j3d27pt", "float", (12, 16, 16), BlockingConfig(bT=2, bS=(10, 10)), 4),
        ("j2d5pt", "float", (40, 40), BlockingConfig(bT=3, bS=(16,)), 7),
        ("j2d9pt", "double", (32, 32), BlockingConfig(bT=2, bS=(24,), hS=16), 5),
        ("gradient2d", "float", (30, 30), BlockingConfig(bT=2, bS=(12,)), 4),
        ("j2d9pt-gol", "float", (26, 26), BlockingConfig(bT=4, bS=(18,)), 6),
    ],
)
def test_blocked_executor_matches_seed_bitwise(name, dtype, interior, config, time_steps):
    pattern = load_pattern(name, dtype)
    grid = GridSpec(interior, time_steps)
    initial = make_initial_grid(pattern, grid, seed=7)
    executor = BlockedStencilExecutor(pattern, grid, config)
    new_result = executor.run(initial)
    seed_result = _seed_blocked_run(executor, initial, time_steps)
    assert new_result.dtype == seed_result.dtype
    assert np.array_equal(new_result, seed_result)


#: sha256 over the blocked results of every Table-3 stencil (BENCHMARKS
#: order, float then double) on the verify-exec geometry, recorded with the
#: per-tile executor that predates tile grouping.
BLOCKED_DIGEST = "6806867e7aba30de5b9007000b9a0c758dd7c0ab032f0dd74eb33da61547ddaf"


def _verify_geometry(pattern):
    """perfbench's verify grid and the largest valid bT from 4 down."""
    if pattern.ndim == 2:
        grid, bS = GridSpec((512, 512), 8), (64,)
    else:
        edge = {1: 48, 2: 32, 3: 24, 4: 24}[pattern.radius]
        grid, bS = GridSpec((edge,) * 3, 4), (16, 16)
    for bT in (4, 3, 2, 1):
        config = BlockingConfig(bT=bT, bS=bS)
        if config.is_valid(pattern):
            return grid, config
    raise AssertionError(f"no valid blocking for {pattern.name}")


def test_blocked_executor_digest_is_pinned():
    digest = hashlib.sha256()
    for name in BENCHMARKS:
        for dtype in DTYPES:
            pattern = load_pattern(name, dtype)
            grid, config = _verify_geometry(pattern)
            result = BlockedStencilExecutor(pattern, grid, config).run(
                make_initial_grid(pattern, grid, 7)
            )
            digest.update(result.tobytes())
    assert digest.hexdigest() == BLOCKED_DIGEST


@pytest.mark.parametrize("name", ("j2d5pt", "star3d1r"))
def test_both_executors_run_stream_last_and_hand_back_c_order(name):
    pattern = load_pattern(name, "double")
    grid = GridSpec((20,) * pattern.ndim, 3)
    config = BlockingConfig(bT=2, bS=(12,) * (pattern.ndim - 1))
    initial = make_initial_grid(pattern, grid, seed=8)
    before = initial.copy()
    kernel = compile_pattern(pattern, mode="compiled")
    seen = []

    def recording(src, region, out):
        seen.append(src.strides[-pattern.ndim] == src.itemsize)
        return kernel(src, region, out)

    executor = BlockedStencilExecutor(pattern, grid, config, kernel_mode="compiled")
    executor.kernel = recording
    blocked = executor.run(initial)
    reference = ReferenceExecutor(pattern, recording).run(initial, grid.time_steps)
    # Every call of both runs sweeps the streaming axis innermost.
    assert seen and all(seen)
    for result in (blocked, reference):
        assert result.flags.c_contiguous and not np.shares_memory(result, initial)
    assert np.array_equal(blocked, reference) and np.array_equal(initial, before)


def test_reference_executor_double_buffered_matches_stepwise():
    pattern = load_pattern("j2d5pt", "float")
    grid = GridSpec((20, 20), 6)
    initial = make_initial_grid(pattern, grid, seed=3)
    executor = ReferenceExecutor(pattern)
    stepped = initial.astype(executor.dtype, copy=True)
    for _ in range(6):
        stepped = executor.run(stepped, 1)
    assert np.array_equal(executor.run(initial, 6), stepped)


def test_blocked_executor_zero_steps_returns_copy():
    pattern = load_pattern("j2d5pt", "float")
    grid = GridSpec((16, 16), 0)
    initial = make_initial_grid(pattern, grid, seed=0)
    executor = BlockedStencilExecutor(pattern, grid, BlockingConfig(bT=2, bS=(12,)))
    result = executor.run(initial, 0)
    assert result is not initial
    assert np.array_equal(result, initial)


# ---------------------------------------------------------------------------
# max_relative_error: single-pass semantics and NaN guards
# ---------------------------------------------------------------------------


def test_max_relative_error_matches_direct_formula():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(37, 53)).astype(np.float64)
    b = a + rng.normal(scale=1e-9, size=a.shape)
    denom = np.maximum(np.abs(a), np.abs(b))
    denom = np.where(denom == 0, 1.0, denom)
    expected = float(np.max(np.abs(a - b) / denom))
    assert max_relative_error(a, b) == pytest.approx(expected, rel=1e-12)


def test_max_relative_error_handles_zeros_and_shape_mismatch():
    a = np.zeros(5)
    assert max_relative_error(a, a) == 0.0
    with pytest.raises(ValueError):
        max_relative_error(np.zeros(3), np.zeros(4))


def test_max_relative_error_nan_guard():
    a = np.array([1.0, np.nan, 2.0])
    matching = np.array([1.0, np.nan, 2.0])
    assert max_relative_error(a, matching) == 0.0
    mismatched = np.array([1.0, 5.0, 2.0])
    assert max_relative_error(a, mismatched) == float("inf")


def test_max_relative_error_streams_large_input():
    rng = np.random.default_rng(1)
    a = rng.uniform(1.0, 2.0, size=1 << 17).astype(np.float32)
    b = a.copy()
    b[-1] *= 1.5
    result = max_relative_error(a, b)
    assert 0.3 < result < 0.4


# ---------------------------------------------------------------------------
# Deep sums: no per-term recursion anywhere on the compiler path
# ---------------------------------------------------------------------------


def test_radius5_box3d_tunes_compiles_and_runs_at_the_default_recursion_limit():
    """1,331 terms: classification, CUDA rendering and the fused NumPy
    lowering all walk the sum without recursion."""
    from repro import api
    from repro.ir.expr import evaluate
    from repro.stencils.generators import box_stencil

    pattern = box_stencil(3, 5)
    assert api.tune(pattern).best.measured_gflops > 0
    assert "__global__" in api.compile_stencil(pattern, bT=2, bS=(32, 32)).cuda.full_source
    kernel = compile_pattern(pattern, mode="compiled")
    src = np.random.default_rng(5).random((11, 11, 11)).astype(np.float32)
    out = np.zeros((1, 1, 1), dtype=np.float32)
    kernel(src, (slice(5, 6),) * 3, out)
    expected = evaluate(pattern.expr, lambda read: float(src[tuple(5 + o for o in read.offset)]))
    assert out[0, 0, 0] == pytest.approx(expected, rel=1e-5)


def test_the_interpreter_oracle_walks_a_radius5_box_at_the_default_recursion_limit():
    from repro.stencils.generators import box_stencil

    pattern = box_stencil(3, 5)
    grid = GridSpec((3, 3, 3), 2)
    initial = make_initial_grid(pattern, grid, seed=4)
    oracle = ReferenceExecutor(pattern, compile_pattern(pattern, mode="interpreter"))
    compiled = ReferenceExecutor(pattern, compile_pattern(pattern, mode="compiled"))
    assert np.array_equal(oracle.run(initial, 2), compiled.run(initial, 2))


def test_box3d4r_goes_through_ir_plan_codegen_and_executor_under_a_recursion_limit_of_150():
    import sys

    from repro import api
    from repro.frontend.stencil_detect import parse_stencil
    from repro.stencils.library import get_benchmark

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        pattern = parse_stencil(get_benchmark("box3d4r").source, name="box3d4r").pattern
        compiled = api.compile_stencil(pattern, bT=2, bS=(32, 32))
        checked = api.verify(pattern, bT=2, bS=(32, 32), grid=(20, 36, 36), time_steps=2)
    finally:
        sys.setrecursionlimit(limit)
    assert compiled.plan.config.bT == 2 and "__global__" in compiled.cuda.full_source
    assert checked.matches
