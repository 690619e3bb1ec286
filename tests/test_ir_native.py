"""The "auto" engine choice, the native build cache and their failure paths.

"auto" decides once per check from the cell updates the check will run;
native builds are published to a per-user cache directory and outlive the
process.  These tests pin the decision, the cache's safety rules (what is
never loaded) and what happens when the toolchain fails or is absent.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.campaign.jobs import CampaignSpec, run_job
from repro.core.config import BlockingConfig
from repro.ir import compile as ir_compile
from repro.ir.compile import (
    NATIVE_CHUNK_STATEMENTS,
    CompileError,
    NativeKernel,
    clear_kernel_cache,
    compile_pattern,
    Lowering,
    empty_stream_last,
    generate_native_source,
    native_cache_dir,
)
from repro.ir.expr import BinOp, Call, Const, GridRead, UnaryOp
from repro.ir.stencil import GridSpec, StencilPattern
from repro.sim.executor import BlockedStencilExecutor, verify_blocking
from repro.stencils.generators import box_stencil
from repro.stencils.library import load_pattern
from repro.stencils.reference import (
    ReferenceExecutor,
    allclose_for_dtype,
    make_initial_grid,
    numpy_dtype,
    run_reference,
)

SRC = Path(__file__).resolve().parents[1] / "src"
REAL_CC = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
needs_cc = pytest.mark.skipif(
    REAL_CC is None or os.environ.get("REPRO_NO_NATIVE") == "1", reason="no C toolchain"
)

#: perfbench's 2-D verify geometry: native from the first call.
GRID_2D, CONFIG_2D = GridSpec((512, 512), 8), BlockingConfig(bT=4, bS=(64,))


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    """An empty temp directory (so an empty kernel cache) and an empty
    in-process kernel table; the real ones are restored afterwards."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    monkeypatch.setattr(ir_compile, "_NATIVE_FN_CACHE", {})
    monkeypatch.setattr(ir_compile, "_FALLBACK_DIR", None)
    clear_kernel_cache()
    yield root
    clear_kernel_cache()


def line_pattern(weight: float, dtype: str = "double") -> StencilPattern:
    """A 1-D three-point stencil: one loop order, so one build per kernel."""
    expr = BinOp("+", BinOp("*", Const(weight), GridRead("A", (-1,))), GridRead("A", (1,)))
    return StencilPattern(f"line-{weight}", 1, expr, dtype=dtype)


def _libraries(directory) -> list:
    return sorted(name for name in os.listdir(directory) if name.endswith(".so"))


def _script(path: Path, body: str) -> str:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


def _run_region(kernel, pattern, seed=0):
    """One call on stream-last arrays, the layout a native kernel runs."""
    rng = np.random.default_rng(seed)
    rad, ndim, np_dtype = pattern.radius, pattern.ndim, numpy_dtype(pattern.dtype)
    src = empty_stream_last((12 + 2 * rad,) * ndim, ndim, np_dtype)
    src[...] = rng.uniform(0.1, 1.0, size=src.shape).astype(np_dtype)
    region = tuple(slice(rad, dim - rad) for dim in src.shape)
    out = empty_stream_last(tuple(s.stop - s.start for s in region), ndim, np_dtype)
    kernel(src, region, out)
    return out


# ---------------------------------------------------------------------------
# Constant folding: one lowering, printed as C and run by NumPy
# ---------------------------------------------------------------------------


def _read(di, dj):
    return GridRead("A", (di, dj))


#: (expression, the one folded literal): ``(0.5*0.25)*A[i][j] + A[i-1][j]``,
#: ``-(2.0)*A[i][j+1] + A[i][j]`` and ``sqrtf(4.0f)*A[i+1][j] - A[i][j]``.
FOLDS = {
    "binop": (BinOp("+", BinOp("*", BinOp("*", Const(0.5), Const(0.25)), _read(0, 0)), _read(-1, 0)), 0.125),
    "negate": (BinOp("+", BinOp("*", UnaryOp("-", Const(2.0)), _read(0, 1)), _read(0, 0)), -2.0),
    "call": (BinOp("-", BinOp("*", Call("sqrtf", (Const(4.0),)), _read(1, 0)), _read(0, 0)), 2.0),
}


@pytest.mark.parametrize("dtype", ("float", "double"))
@pytest.mark.parametrize("case", sorted(FOLDS))
def test_constant_subtrees_fold_to_one_literal_in_both_lowerings(case, dtype):
    expr, folded = FOLDS[case]
    pattern = StencilPattern(f"fold-{case}", 2, expr, dtype=dtype)
    np_dtype = numpy_dtype(dtype)

    lowering = Lowering(pattern.expr, np_dtype)
    consts = [
        lowering.consts[number]
        for _, operands in lowering.statements
        for kind, number in operands
        if kind == "c"
    ]
    assert consts == [np_dtype(folded)] and type(consts[0]) is np_dtype

    c_source = generate_native_source(pattern)
    literal = float(folded).hex() + ("f" if dtype == "float" else "")
    assert c_source.count(literal) == 1
    for operand in (0.5, 0.25, 4.0):
        assert float(operand).hex() not in c_source

    outputs = {mode: _run_region(compile_pattern(pattern, mode=mode), pattern)
               for mode in ("interpreter", "compiled")}
    if REAL_CC is not None and ir_compile._native_compiler() is not None:
        native = compile_pattern(pattern, mode="native")
        outputs["native"] = _run_region(native, pattern)
        assert native.fallback_calls == 0
    for mode, out in outputs.items():
        assert out.tobytes() == outputs["interpreter"].tobytes(), mode


def test_a_native_source_folds_its_constants_in_the_dtype_it_is_printed_for():
    # j2d5pt's coefficients round differently in float and in double, and
    # each pattern's source spells its own dtype's values.
    values = {}
    for dtype in ("float", "double"):
        pattern = load_pattern("j2d5pt", dtype)
        source = generate_native_source(pattern)
        consts = Lowering(pattern.expr, numpy_dtype(dtype)).consts
        assert consts and all(ir_compile._c_literal(value, dtype) in source for value in consts)
        values[dtype] = [float(value) for value in consts]
    assert values["float"] == [float(np.float32(value)) for value in values["double"]]
    assert values["float"] != values["double"]


# ---------------------------------------------------------------------------
# Long native loop bodies, split into runs
# ---------------------------------------------------------------------------

#: sha256 of j2d5pt's C source per dtype, as generated before long bodies
#: were split: a body of one run keeps its source, so its build key and
#: every library already built for it.
J2D5PT_SOURCES = {
    "float": "315e975a54cc0a2b7842ae4b1e6d15bb9973f08ea42a55116df010ce4c77a72d",
    "double": "059bbb33c36eca88e860a3b135208f49f5303438afd963dac06d530fe991bac3",
}


def test_a_body_of_one_run_generates_the_source_it_always_had():
    for dtype, digest in J2D5PT_SOURCES.items():
        source = generate_native_source(load_pattern("j2d5pt", dtype))
        assert hashlib.sha256(source.encode()).hexdigest() == digest
        assert source.count("for (ptrdiff_t k") == 1


def product_of_sums(dtype: str) -> StencilPattern:
    """(a sum of 3 weighted reads) x (a sum of 65) over a 3-D radius-1 box:
    the second sum keeps two values live, so no run may end inside it."""
    offsets = [(di, dj, dk) for di in (-1, 0, 1) for dj in (-1, 0, 1) for dk in (-1, 0, 1)]

    def weighted_sum(count: int, scale: float):
        terms = [
            BinOp("*", Const(scale * (1 + index % 7) / 64), GridRead("A", offsets[index % 27]))
            for index in range(count)
        ]
        total = terms[0]
        for term in terms[1:]:
            total = BinOp("+", total, term)
        return total

    expr = BinOp("*", weighted_sum(3, 1.0), weighted_sum(65, 0.5))
    return StencilPattern("sum-product", 3, expr, dtype=dtype)


def _runs(pattern: StencilPattern):
    statements = Lowering(pattern.expr, numpy_dtype(pattern.dtype)).statements
    return ir_compile._native_runs(statements, NATIVE_CHUNK_STATEMENTS), len(statements)


def test_runs_end_only_where_one_value_is_live():
    # A left-fold sum can end a run after any add: every run is full.
    runs, total = _runs(dataclasses.replace(box_stencil(3, 3), dtype="double"))
    assert total == 685 and len(runs) == 6
    assert all(stop - start <= NATIVE_CHUNK_STATEMENTS for start, stop, _ in runs)
    assert [start for start, _, _ in runs[1:]] == [stop for _, stop, _ in runs[:-1]]
    assert runs[0][2] is None and all(carried for _, _, carried in runs[1:])
    # The product: a run ends where the first sum does; the second sum and
    # the product then run as one body past the size.
    runs, total = _runs(product_of_sums("double"))
    assert total == 135 and runs == [(0, 5, None), (5, 135, "v4")]


def test_a_run_with_no_cut_inside_ends_at_the_first_cut_beyond():
    # The product, then 20 more weighted reads summed onto it: the run after
    # the first sum has no cut within 128 statements and ends at the
    # product, the first cut beyond them.
    expr = product_of_sums("double").expr
    for index in range(20):
        expr = BinOp("+", expr, BinOp("*", Const(0.5 + index), GridRead("A", (1, 0, index % 2))))
    runs, total = _runs(StencilPattern("sum-product-sum", 3, expr, dtype="double"))
    assert total == 175 and runs == [(0, 5, None), (5, 135, "v4"), (135, 175, "v134")]


def _outputs_in_both_orders(kernel, pattern, seed=0):
    """The kernel's update of a C-ordered grid and of a stream-last one
    (a native kernel hands the first to NumPy and runs the second)."""
    rng = np.random.default_rng(seed)
    rad = pattern.radius
    shape = (6 + 2 * rad,) * pattern.ndim
    region = tuple(slice(rad, dim - rad) for dim in shape)
    data = rng.uniform(0.1, 1.0, size=shape).astype(numpy_dtype(pattern.dtype))
    outputs = []
    for empty in (np.empty, lambda shape, dtype: empty_stream_last(shape, pattern.ndim, dtype)):
        src = empty(shape, data.dtype)
        src[...] = data
        out = empty(tuple(s.stop - s.start for s in region), data.dtype)
        kernel(src, region, out)
        outputs.append(np.ascontiguousarray(out).tobytes())
    return outputs


@needs_cc
@pytest.mark.parametrize("dtype", ("float", "double"))
@pytest.mark.parametrize("build", ("box_stencil", "product_of_sums"))
def test_a_split_body_is_bit_equal_to_both_numpy_engines_in_both_memory_orders(build, dtype):
    if build == "box_stencil":
        pattern = dataclasses.replace(box_stencil(3, 2), dtype=dtype)
    else:
        pattern = product_of_sums(dtype)
    assert generate_native_source(pattern).count("for (ptrdiff_t k") > 1
    native = NativeKernel(pattern)
    expected = _outputs_in_both_orders(compile_pattern(pattern, mode="interpreter"), pattern)
    assert expected[0] == expected[1]
    assert _outputs_in_both_orders(compile_pattern(pattern, mode="compiled"), pattern) == expected
    assert _outputs_in_both_orders(native, pattern) == expected
    assert native.fallback_calls == 1


# ---------------------------------------------------------------------------
# The per-check decision
# ---------------------------------------------------------------------------


def test_updated_elements_counts_every_cell_the_kernel_updates():
    pattern = load_pattern("j2d9pt", "float")
    grid = GridSpec((70, 50), 7)
    executor = BlockedStencilExecutor(pattern, grid, BlockingConfig(bT=3, bS=(24,), hS=20))
    inner, counted = executor.kernel, []

    def counting(src, region, out):
        counted.append(out.size)
        return inner(src, region, out)

    executor.kernel = counting
    executor.run(make_initial_grid(pattern, grid, seed=1))
    assert sum(counted) == executor.updated_elements(grid.time_steps)


def test_a_check_counts_its_reference_updates_and_a_blocked_run_alone_does_not(monkeypatch):
    from repro import api
    from repro.sim import executor as executor_module

    pattern = load_pattern("j2d5pt", "float")
    grid = GridSpec((40, 30), 4)
    config = BlockingConfig(bT=2, bS=(16,))
    asked = []
    real = executor_module.compile_pattern
    monkeypatch.setattr(
        executor_module,
        "compile_pattern",
        lambda pattern, mode, elements: asked.append(elements) or real(pattern, mode="compiled"),
    )
    blocked = BlockedStencilExecutor(pattern, grid, config).updated_elements(grid.time_steps)
    api.run(pattern, config, grid)
    assert asked == [blocked + grid.cells * grid.time_steps, blocked]


@needs_cc
def test_a_2d_verify_check_runs_native_from_its_first_call(cache_root):
    pattern = load_pattern("j2d5pt", "float")
    executor = BlockedStencilExecutor(pattern, GRID_2D, CONFIG_2D)
    assert executor.kernel.mode == "auto:native"
    # One check, one engine: an unsized reference gets the executor's kernel,
    # and so does the sized one (it updates fewer cells than the executor).
    assert ReferenceExecutor(pattern).kernel is executor.kernel
    assert compile_pattern(pattern, elements=GRID_2D.cells * GRID_2D.time_steps) is executor.kernel
    # Both runs keep the streaming axis innermost: one loop order, one build.
    assert len(_libraries(native_cache_dir())) == 1
    initial = make_initial_grid(pattern, GRID_2D, seed=3)
    blocked = executor.run(initial)
    assert np.array_equal(blocked, run_reference(pattern, GRID_2D, initial=initial))
    assert executor.kernel.fallback_calls == 0
    assert len(_libraries(native_cache_dir())) == 1


@needs_cc
def test_box3d3r_verify_check_goes_native():
    # The session's cache: the pinned blocked digest runs this geometry too,
    # so the 343-read build is usually loaded here, not made again.
    pattern = load_pattern("box3d3r", "double")
    grid = GridSpec((24, 24, 24), 4)
    config = next(
        config
        for config in (BlockingConfig(bT=bT, bS=(16, 16)) for bT in (4, 3, 2, 1))
        if config.is_valid(pattern)
    )
    clear_kernel_cache()
    executor = BlockedStencilExecutor(pattern, grid, config)
    kernel = executor.kernel
    assert kernel.mode == "auto:native"
    initial = make_initial_grid(pattern, grid, seed=6)
    blocked = executor.run(initial)
    reference = ReferenceExecutor(pattern).run(initial, grid.time_steps)
    oracle = BlockedStencilExecutor(pattern, grid, config, kernel_mode="compiled")
    assert np.array_equal(blocked, oracle.run(initial))
    assert np.array_equal(reference, ReferenceExecutor(pattern, oracle.kernel).run(initial, grid.time_steps))
    assert kernel.fallback_calls == 0
    clear_kernel_cache()


def test_a_check_too_small_to_pay_never_starts_a_build(cache_root):
    pattern = load_pattern("box3d3r", "double")
    grid = GridSpec((8, 8, 8), 2)
    executor = BlockedStencilExecutor(pattern, grid, BlockingConfig(bT=1, bS=(8, 8)))
    assert executor.kernel.mode == "auto:compiled"
    initial = make_initial_grid(pattern, grid, seed=2)
    assert np.array_equal(executor.run(initial), ReferenceExecutor(pattern).run(initial, 2))
    assert ir_compile._NATIVE_FN_CACHE == {}
    assert not os.path.exists(native_cache_dir())


@needs_cc
def test_a_cached_numpy_choice_is_revisited_and_a_native_one_kept(cache_root):
    pattern = line_pattern(0.5)
    small = compile_pattern(pattern, elements=1000)
    assert small.mode == "auto:compiled"
    assert compile_pattern(pattern) is small
    large = compile_pattern(pattern, elements=10**8)
    assert large.mode == "auto:native"
    assert compile_pattern(pattern, elements=1000) is large


def test_with_no_native_tier_a_check_above_the_threshold_stays_on_numpy(cache_root, monkeypatch):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    pattern = load_pattern("box2d2r", "float")
    executor = BlockedStencilExecutor(pattern, GRID_2D, CONFIG_2D)
    assert executor.kernel.mode == "auto:compiled"
    initial = make_initial_grid(pattern, GRID_2D, seed=5)
    blocked = executor.run(initial)
    assert allclose_for_dtype(blocked, run_reference(pattern, GRID_2D, initial=initial), "float")
    assert ir_compile._NATIVE_FN_CACHE == {}


# ---------------------------------------------------------------------------
# Build failures
# ---------------------------------------------------------------------------


def test_a_failing_compiler_raises_its_stderr_and_auto_falls_back(cache_root, tmp_path, monkeypatch):
    log = tmp_path / "calls"
    fake = _script(
        tmp_path / "fake-cc", f'echo x >> "{log}"\necho "fake-cc: error: out of kaboom" >&2\nexit 1\n'
    )
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(ir_compile, "_NATIVE_COMPILER", fake)
    pattern = load_pattern("j2d5pt", "float")
    with pytest.raises(CompileError, match="out of kaboom"):
        NativeKernel(pattern)
    calls = len(log.read_text().splitlines())
    assert calls == 2  # one loop order, with and without -march=native
    executor = BlockedStencilExecutor(pattern, GRID_2D, CONFIG_2D)
    assert executor.kernel.mode == "auto:compiled"
    assert verify_blocking(pattern, GRID_2D, CONFIG_2D, seed=2).matches
    # The failure is remembered: no later check of the process reruns it.
    clear_kernel_cache()
    assert BlockedStencilExecutor(pattern, GRID_2D, CONFIG_2D).kernel.mode == "auto:compiled"
    assert len(log.read_text().splitlines()) == calls
    assert _libraries(native_cache_dir()) == []


@needs_cc
def test_a_failed_march_native_build_is_retried_without_it(cache_root, tmp_path, monkeypatch):
    log = tmp_path / "calls"
    fake = _script(
        tmp_path / "no-march-cc",
        f'echo "$*" >> "{log}"\n'
        'for arg in "$@"; do\n'
        '  if [ "$arg" = "-march=native" ]; then echo "unsupported -march" >&2; exit 1; fi\n'
        "done\n"
        f'exec "{REAL_CC}" "$@"\n',
    )
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(ir_compile, "_NATIVE_COMPILER", fake)
    pattern = line_pattern(0.25)
    kernel = NativeKernel(pattern)
    calls = log.read_text().splitlines()
    assert len(calls) == 2 and "-march=native" in calls[0] and "-march=native" not in calls[1]
    assert np.array_equal(
        _run_region(kernel, pattern), _run_region(compile_pattern(pattern, mode="interpreter"), pattern)
    )


@needs_cc
def test_an_os_error_fails_one_build_and_is_not_remembered(cache_root, monkeypatch):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    real = ir_compile._compile_library
    calls = []

    def full_disk_twice(*args):
        calls.append(args)
        if len(calls) <= 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args)

    monkeypatch.setattr(ir_compile, "_compile_library", full_disk_twice)
    pattern = line_pattern(0.75)
    with pytest.raises(CompileError, match="No space left on device"):
        NativeKernel(pattern)
    # "auto" runs that check on NumPy; the next check that pays builds.
    assert compile_pattern(pattern, elements=10**8).mode == "auto:compiled"
    assert ir_compile._NATIVE_FN_CACHE == {}
    assert compile_pattern(pattern, elements=10**8).mode == "auto:native"
    assert len(calls) == 3


@needs_cc
def test_a_native_kernel_runs_c_ordered_calls_on_numpy_and_builds_once(cache_root):
    pattern = load_pattern("j2d5pt", "double")
    kernel = compile_pattern(pattern, mode="native")
    assert len(_libraries(native_cache_dir())) == 1
    grid, config = GridSpec((40, 40), 4), BlockingConfig(bT=2, bS=(16,))
    executor = BlockedStencilExecutor(pattern, grid, config, kernel_mode="native")
    assert executor.kernel is kernel
    initial = make_initial_grid(pattern, grid, seed=4)
    blocked = executor.run(initial)
    reference = ReferenceExecutor(pattern, kernel).run(initial, grid.time_steps)
    # Both executors keep the streaming axis innermost: the one loop nest.
    assert len(_libraries(native_cache_dir())) == 1 and kernel.fallback_calls == 0
    oracle = ReferenceExecutor(pattern, compile_pattern(pattern, mode="interpreter"))
    expected = oracle.run(initial, grid.time_steps)
    assert np.array_equal(blocked, expected) and np.array_equal(reference, expected)
    # A C-ordered grid runs on the NumPy engine: every call is counted, and
    # no second library is built.
    interior = tuple(slice(pattern.radius, n - pattern.radius) for n in initial.shape)
    stepped = initial
    for step in range(grid.time_steps):
        source, stepped = stepped, stepped.copy()
        kernel(source, interior, out=stepped[interior])
        assert kernel.fallback_calls == step + 1
    assert len(_libraries(native_cache_dir())) == 1
    assert stepped.tobytes() == expected.tobytes()


def test_a_fuzz_job_builds_no_native_kernel(cache_root, tmp_path, monkeypatch):
    log = tmp_path / "calls"
    fake = _script(tmp_path / "fake-cc", f'echo x >> "{log}"\nexit 1\n')
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(ir_compile, "_NATIVE_COMPILER", fake)
    # fuzz-7-1 is a 13-read 3-D stencil whose blocked check, run by "auto",
    # would pay for a build over NATIVE_AMORTISED_RUNS reuses.
    job = CampaignSpec(kinds=("fuzz",), fuzz_seed=7, fuzz_count=2).expand()[1]
    pattern = load_pattern(job.pattern, job.dtype)
    grid = job.grid()
    config = BlockingConfig(bT=2, bS=(16, 16))
    executor = BlockedStencilExecutor(pattern, grid, config, kernel_mode="compiled")
    assert ir_compile._native_pays(pattern, executor.updated_elements(grid.time_steps))
    payload = run_job(job)
    assert payload["passed"] and "blocked_vs_reference" in [c["check"] for c in payload["checks"]]
    assert not log.exists()
    assert ir_compile._NATIVE_FN_CACHE == {}


# ---------------------------------------------------------------------------
# The cache: what outlives the process, and what is never loaded
# ---------------------------------------------------------------------------

_CHILD = """
import sys
from repro.ir.compile import compile_pattern, native_cache_dir
from test_ir_native import line_pattern
kernel = compile_pattern(line_pattern(float(sys.argv[1])), mode="native")
print(kernel.mode, native_cache_dir())
"""


def _child(root: Path, weight: float, path_dirs=(), **env):
    # Entries already on PYTHONPATH stay, after these two.
    inherited = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    pythonpath = os.pathsep.join([str(SRC), str(Path(__file__).parent), *inherited])
    environ = dict(os.environ, TMPDIR=str(root), PYTHONPATH=pythonpath, **env)
    environ.pop("REPRO_NO_NATIVE", None)
    environ["PATH"] = os.pathsep.join([*map(str, path_dirs), environ.get("PATH", "")])
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(weight)],
        env=environ, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(process) -> str:
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    return stdout


@needs_cc
def test_a_fresh_process_loads_a_cached_kernel_while_cc_fails(tmp_path):
    # One shim, at one path with one stat: it builds while ALLOW_BUILD is set
    # and fails otherwise, so the second process can only load.
    shim_dir = tmp_path / "bin"
    shim_dir.mkdir()
    _script(
        shim_dir / "cc",
        'if [ -n "$ALLOW_BUILD" ]; then exec "' + REAL_CC + '" "$@"; fi\n'
        'echo "cc shim: refusing to build" >&2\nexit 1\n',
    )
    root = tmp_path / "tmp"
    root.mkdir()
    first = _finish(_child(root, 0.5, [shim_dir], ALLOW_BUILD="1"))
    cache = first.split()[1]
    built = _libraries(cache)
    assert first.split()[0] == "native" and len(built) == 1
    second = _finish(_child(root, 0.5, [shim_dir]))
    assert second.split() == first.split()
    assert _libraries(cache) == built
    # The shim does fail without ALLOW_BUILD.
    refused = subprocess.run([str(shim_dir / "cc"), "--version"], capture_output=True, text=True)
    assert refused.returncode != 0 and "refusing to build" in refused.stderr


@needs_cc
def test_two_concurrent_builds_of_one_key_both_succeed(tmp_path):
    root = tmp_path / "tmp"
    root.mkdir()
    processes = [_child(root, 0.5) for _ in range(2)]
    outputs = [_finish(process) for process in processes]
    assert outputs[0] == outputs[1]
    cache = outputs[0].split()[1]
    # Builds are deterministic, so both publish the same name; no temporary
    # file is left behind.
    assert len(_libraries(cache)) == 1
    assert len(os.listdir(cache)) == 1


def _spy_loads(monkeypatch) -> list:
    """Record the path and bytes of every library the process loads."""
    loaded = []
    original = ir_compile._entry_point

    def spy(path, ndim):
        loaded.append((path, Path(path).read_bytes()))
        return original(path, ndim)

    monkeypatch.setattr(ir_compile, "_entry_point", spy)
    return loaded


def _digest_matches(path: str, data: bytes) -> bool:
    return os.path.basename(path).split(".")[1] == hashlib.sha256(data).hexdigest()[:16]


@needs_cc
def test_a_truncated_library_is_never_loaded_but_rebuilt(cache_root, monkeypatch):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    pattern = line_pattern(0.125, "float")
    NativeKernel(pattern)
    cache = native_cache_dir()
    names = _libraries(cache)
    for name in names:
        # A new inode: this process has the complete library mapped.
        path = os.path.join(cache, name)
        data = Path(path).read_bytes()
        Path(path + ".cut").write_bytes(data[: len(data) // 2])
        os.chmod(path + ".cut", 0o700)
        os.replace(path + ".cut", path)
    monkeypatch.setattr(ir_compile, "_NATIVE_FN_CACHE", {})
    loaded = _spy_loads(monkeypatch)
    kernel = NativeKernel(pattern)
    assert len(loaded) == 1 and all(_digest_matches(path, data) for path, data in loaded)
    assert _libraries(cache) == names
    assert np.array_equal(
        _run_region(kernel, pattern), _run_region(compile_pattern(pattern, mode="interpreter"), pattern)
    )


@needs_cc
@pytest.mark.parametrize("mode", (0o770, 0o707), ids=("group", "world"))
def test_a_group_or_world_writable_cache_is_never_loaded_from(cache_root, monkeypatch, mode):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    pattern = line_pattern(0.375, "double")
    NativeKernel(pattern)
    cache = native_cache_dir()
    names = _libraries(cache)
    os.chmod(cache, mode)
    monkeypatch.setattr(ir_compile, "_NATIVE_FN_CACHE", {})
    loaded = _spy_loads(monkeypatch)
    NativeKernel(pattern)
    assert len(loaded) == 1
    assert all(os.path.dirname(path) != cache for path, _ in loaded)
    assert _libraries(cache) == names  # nothing written there either
    fallback = os.path.dirname(loaded[0][0])
    assert stat.S_IMODE(os.stat(fallback).st_mode) == 0o700


@needs_cc
def test_a_cache_owned_by_another_user_is_never_loaded_from(cache_root, monkeypatch):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    pattern = line_pattern(0.625, "float")
    NativeKernel(pattern)
    # The directory this process would use, for a uid it does not have.
    other = os.getuid() + 1
    theirs = os.path.join(str(cache_root), f"repro-native-kernels-{other}")
    shutil.copytree(native_cache_dir(), theirs)
    monkeypatch.setattr(ir_compile.os, "getuid", lambda: other)
    monkeypatch.setattr(ir_compile, "_NATIVE_FN_CACHE", {})
    loaded = _spy_loads(monkeypatch)
    NativeKernel(pattern)
    assert len(loaded) == 1
    assert all(os.path.dirname(path) != theirs for path, _ in loaded)


@needs_cc
def test_a_group_writable_library_is_never_loaded(cache_root, monkeypatch):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    pattern = line_pattern(0.875, "double")
    NativeKernel(pattern)
    cache = native_cache_dir()
    for name in _libraries(cache):
        os.chmod(os.path.join(cache, name), 0o770)
    monkeypatch.setattr(ir_compile, "_NATIVE_FN_CACHE", {})
    loaded = _spy_loads(monkeypatch)
    NativeKernel(pattern)
    assert len(loaded) == 1
    for path, _ in loaded:
        assert not os.stat(path).st_mode & 0o022


def test_the_build_key_changes_with_the_compiler_and_the_source(tmp_path):
    first = _script(tmp_path / "cc-a", "exit 0\n")
    second = _script(tmp_path / "cc-b", "exit 0\n")
    source = generate_native_source(line_pattern(0.5))
    key = ir_compile._build_key(first, source)
    assert key == ir_compile._build_key(first, source)
    assert key != ir_compile._build_key(second, source)
    assert key != ir_compile._build_key(first, source + "\n")
    _script(tmp_path / "cc-a", "exit 0 # upgraded\n")
    assert key != ir_compile._build_key(first, source)


@needs_cc
def test_one_layout_decision_per_call_shape(monkeypatch):
    pattern = load_pattern("j2d5pt", "double")
    native = NativeKernel(pattern)
    compiled = compile_pattern(pattern, mode="compiled")
    rng = np.random.default_rng(5)

    def stack(count, np_dtype=np.float64):
        src = empty_stream_last((count, 10, 8), 2, np_dtype)
        src[...] = rng.random(src.shape)
        return src, lambda: empty_stream_last((count, 10, 8), 2, np_dtype)

    def check(src, empty, region=(slice(1, 9), slice(1, 7))):
        """Native and NumPy outputs of one call, compared bit for bit; as in
        the executors, ``out`` is the region of a grid like ``src``."""
        index = (slice(None),) * (src.ndim - 2) + region
        outs = [empty()[index], empty()[index]]
        native(src, region, outs[0])
        compiled(src, region, outs[1])
        assert outs[0].tobytes() == outs[1].tobytes()

    # Stream-last stacks run the kernel's loop nest; a second region on the
    # same layout reuses the first decision.
    src, empty = stack(3)
    check(src, empty)
    check(src, empty, (slice(2, 8), slice(1, 5)))
    assert len(native._layouts) == 1 and native.fallback_calls == 0
    # C-ordered arrays and a mismatched dtype go to NumPy, and every such
    # call is counted.
    check(rng.random((10, 8)), lambda: np.empty((10, 8)))
    assert len(native._layouts) == 2 and native.fallback_calls == 1
    src32, empty32 = stack(2, np.float32)
    for calls in (2, 3):
        check(src32, empty32)
        assert native.fallback_calls == calls
    assert len(native._layouts) == 3
    # The memo stays within its bound: a full one starts over.
    monkeypatch.setattr(ir_compile, "NATIVE_LAYOUTS_MAX", 3)
    for count in range(4, 9):
        check(*stack(count))
        assert 1 <= len(native._layouts) <= 3
    assert native.fallback_calls == 3


def test_a_repointed_compiler_symlink_is_resolved_again(tmp_path, monkeypatch):
    first = _script(tmp_path / "cc-a", "exit 0\n")
    second = _script(tmp_path / "cc-b", "exit 0 # another compiler\n")
    link = tmp_path / "cc"
    link.symlink_to(first)
    source = generate_native_source(line_pattern(0.5))
    resolved = []
    realpath = os.path.realpath
    monkeypatch.setattr(os.path, "realpath", lambda path: resolved.append(path) or realpath(path))
    key = ir_compile._build_key(str(link), source)
    assert key == ir_compile._build_key(str(link), source) == ir_compile._build_key(first, source)
    assert resolved == [str(link), first]  # once per compiler string
    link.unlink()
    link.symlink_to(second)
    moved = ir_compile._build_key(str(link), source)
    assert resolved[2:] == [str(link)]
    assert moved != key and moved == ir_compile._build_key(second, source)
