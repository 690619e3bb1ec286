"""Tests for CUDA code generation (kernel, host, macros)."""

import hashlib
import json
import re
from pathlib import Path

from repro.codegen.kernel_gen import generate_kernel
from repro.codegen.host_gen import generate_host
from repro.codegen import macros
from repro.codegen.macros import generate_macro_definitions, render_expression
from repro.codegen.package import generate_cuda
from repro.core.config import BlockingConfig
from repro.core.transform import an5d_transform
from repro.frontend.stencil_detect import parse_stencil
from repro.model.traffic import shared_memory_access_per_thread
from repro.stencils.library import load_pattern

#: The tuned configuration and CUDA digest of every Table-5 item.
EXPECTED_TABLE3 = Path(__file__).resolve().parents[1] / "perfbench" / "expected_table3.json"


def make_plan(pattern, **kwargs):
    defaults = dict(bT=4, bS=(64,) if pattern.ndim == 2 else (16, 16), hS=None)
    defaults.update(kwargs)
    return an5d_transform(pattern, BlockingConfig(**defaults))


# -- expression rendering --------------------------------------------------------


def test_render_expression_uses_registers_for_own_column(j2d5pt):
    text = render_expression(j2d5pt, j2d5pt.expr, ["r0", "r1", "r2"], "SM", multi_plane=False)
    assert "(r0)" in text and "(r1)" in text and "(r2)" in text


def test_render_expression_uses_smem_for_neighbours(j2d5pt):
    text = render_expression(j2d5pt, j2d5pt.expr, ["r0", "r1", "r2"], "SM", multi_plane=False)
    assert "__an5d_sm_load(&SM[__an5d_tx + -1])" in text
    assert "__an5d_sm_load(&SM[__an5d_tx + 1])" in text


def test_render_expression_multi_plane_indexing(box2d1r):
    text = render_expression(box2d1r, box2d1r.expr, ["r0", "r1", "r2"], "SM", multi_plane=True)
    # Neighbouring sub-planes are addressed by plane index rad + offset.
    assert "SM[0]" in text and "SM[2]" in text


def test_render_expression_literal_suffix_follows_dtype():
    single = load_pattern("j2d5pt", "float")
    double = load_pattern("j2d5pt", "double")
    text_single = render_expression(single, single.expr, ["a", "b", "c"], "SM", False)
    text_double = render_expression(double, double.expr, ["a", "b", "c"], "SM", False)
    assert "5.1f" in text_single
    assert "5.1f" not in text_double and "5.1" in text_double


def test_double_coefficients_round_trip_through_the_emitted_cuda():
    source = """
for (t = 0; t < I_T; t++)
  for (i = 1; i <= I_S2; i++)
    for (j = 1; j <= I_S1; j++)
      A[(t+1)%2][i][j] = 0.12345678901234567 * A[t%2][i-1][j] + A[t%2][i][j] + A[t%2][i][j+1];
"""
    pattern = parse_stencil(source, name="exact", dtype="double").pattern
    cuda = generate_cuda(make_plan(pattern, bT=2)).kernel_source
    literals = re.findall(r"\b0\.\d+(?:e[-+]?\d+)?\b", cuda)
    assert literals and all(float(text) == 0.12345678901234567 for text in literals)


# -- macros ------------------------------------------------------------------------


def test_macro_definitions_cover_all_time_steps(j2d5pt):
    plan = make_plan(j2d5pt, bT=4)
    text = generate_macro_definitions(plan)
    for name in ("#define LOAD(", "#define CALC1(", "#define CALC2(", "#define CALC3(", "#define STORE("):
        assert name in text
    assert "#define CALC4(" not in text


def test_macro_definitions_wrap_smem_loads(j2d5pt):
    text = generate_macro_definitions(make_plan(j2d5pt))
    assert "__an5d_sm_load" in text
    assert "__device__ __forceinline__" in text


def test_macros_alternate_double_buffers(j2d5pt):
    text = generate_macro_definitions(make_plan(j2d5pt, bT=3))
    # CALC1 writes buffer 1, CALC2 writes buffer 0.
    calc1 = text.split("#define CALC1")[1].split("#define")[0]
    calc2 = text.split("#define CALC2")[1].split("#define")[0]
    assert "__an5d_sm1[__an5d_tx] = __an5d_res" in calc1
    assert "__an5d_sm0[__an5d_tx] = __an5d_res" in calc2


def test_store_macro_guards_compute_region(j2d5pt):
    text = generate_macro_definitions(make_plan(j2d5pt))
    assert "__an5d_in_compute_region" in text


def test_macro_definitions_render_one_body_per_buffer(j2d5pt, monkeypatch):
    plan = make_plan(j2d5pt, bT=10, bS=(128,))
    rendered = []
    render = macros.render_expression

    def counting(*args):
        rendered.append(args[3])
        return render(*args)

    monkeypatch.setattr(macros, "render_expression", counting)
    text = generate_macro_definitions(plan)
    assert text.count("#define CALC") == 9
    assert len(rendered) <= plan.smem_buffers
    assert sorted(rendered) == ["__an5d_sm0", "__an5d_sm1"]


def _tuned_items():
    for key, tuned in sorted(json.loads(EXPECTED_TABLE3.read_text()).items()):
        name, dtype, _gpu = key.split("/")
        config = BlockingConfig(
            bT=tuned["bT"], bS=tuple(tuned["bS"]), hS=tuned["hS"], register_limit=tuned["regs"]
        )
        yield key, load_pattern(name, dtype), config, tuned["cuda_sha256"]


def test_emitted_bodies_read_table2_expected_shared_memory_addresses():
    """Table 2's "expected" reads are the distinct shared-memory addresses
    each CALC/STORE body of the 84 tuned Table-5 kernels loads."""
    items = list(_tuned_items())
    assert len(items) == 84
    for key, pattern, config, digest in items:
        cuda = generate_cuda(an5d_transform(pattern, config))
        both = (cuda.kernel_source + "\0" + cuda.host_source).encode()
        assert hashlib.sha256(both).hexdigest() == digest, key
        expected = shared_memory_access_per_thread(pattern).reads_expected
        bodies = re.findall(r"#define (?:CALC\d+|STORE)\(.*?while \(0\)", cuda.kernel_source, re.S)
        assert len(bodies) == config.bT, key
        for body in bodies:
            addresses = set(re.findall(r"__an5d_sm_load\(&([^)]*)\)", body))
            assert len(addresses) == expected, (key, body)


# -- kernel ------------------------------------------------------------------------


def test_kernel_contains_global_qualifier_and_name(j2d5pt):
    source = generate_kernel(make_plan(j2d5pt))
    assert "__global__" in source
    assert "an5d_kernel_j2d5pt" in source


def test_kernel_declares_double_buffered_smem(j2d5pt):
    source = generate_kernel(make_plan(j2d5pt))
    assert "__shared__ float __an5d_sm0" in source
    assert "__shared__ float __an5d_sm1" in source


def test_kernel_declares_all_subplane_registers(j2d5pt):
    source = generate_kernel(make_plan(j2d5pt, bT=4))
    for step in range(4):
        for slot in range(3):
            assert f"reg_{step}_{slot}" in source


def test_kernel_has_three_phases_and_sync(j2d5pt):
    source = generate_kernel(make_plan(j2d5pt))
    assert "head phase" in source and "inner phase" in source and "tail phase" in source
    assert source.count("__syncthreads();") >= 2


def test_kernel_inner_loop_steps_by_rotation_period(j2d9pt):
    source = generate_kernel(make_plan(j2d9pt, bT=3))
    assert re.search(r"__an5d_h \+= 5", source)


def test_kernel_macro_argument_rotation_visible(j2d5pt):
    source = generate_kernel(make_plan(j2d5pt, bT=4))
    # Different rotations of the final register group appear in STORE calls.
    assert "reg_3_0, reg_3_1, reg_3_2" in source
    assert "reg_3_1, reg_3_2, reg_3_0" in source


def test_kernel_3d_uses_two_thread_indices(star3d1r):
    source = generate_kernel(make_plan(star3d1r, bT=2, bS=(16, 16)))
    assert "threadIdx.y" in source and "threadIdx.x" in source
    assert "blockIdx.y" in source


def test_kernel_launch_bounds_with_register_limit(j2d5pt):
    source = generate_kernel(make_plan(j2d5pt, register_limit=64))
    assert "__launch_bounds__(64)" in source


def test_kernel_braces_balance(j2d5pt, star3d1r, box2d1r):
    for pattern in (j2d5pt, star3d1r, box2d1r):
        source = generate_kernel(make_plan(pattern, bS=(64,) if pattern.ndim == 2 else (16, 16)))
        assert source.count("{") == source.count("}")
        assert source.count("(") == source.count(")")


# -- host --------------------------------------------------------------------------


def test_host_launches_kernel_with_grid_and_block(j2d5pt):
    source = generate_host(make_plan(j2d5pt))
    assert "an5d_kernel_j2d5pt<<<__an5d_grid, __an5d_block>>>" in source
    assert "dim3" in source


def test_host_grid_uses_compute_region_divisor(j2d5pt):
    source = generate_host(make_plan(j2d5pt, bT=4, bS=(64,)))
    # compute region = 64 - 2*4 = 56
    assert "/ 56" in source


def test_host_swaps_buffers_per_launch(j2d5pt):
    source = generate_host(make_plan(j2d5pt))
    assert "__an5d_buf0 = __an5d_buf1" in source


def test_host_generates_remainder_branches(j2d5pt):
    source = generate_host(make_plan(j2d5pt, bT=4))
    for residual in (1, 2, 3):
        assert f"__an5d_remainder == {residual}" in source
    assert "__an5d_remainder == 4" not in source


def test_host_stream_division_loop(j2d5pt):
    source = generate_host(make_plan(j2d5pt, hS=512))
    assert "__an5d_hs_begin += 512" in source
    assert "min(__an5d_hs_begin + 512, __an5d_is0)" in source


def test_host_braces_balance(star3d1r):
    source = generate_host(make_plan(star3d1r, bS=(16, 16)))
    assert source.count("{") == source.count("}")


# -- package -------------------------------------------------------------------------


def test_package_bundles_kernel_and_host(j2d5pt):
    package = generate_cuda(make_plan(j2d5pt))
    assert package.kernel_name == "an5d_kernel_j2d5pt"
    assert package.host_name == "an5d_host_j2d5pt"
    assert package.kernel_source in package.full_source
    assert package.host_source in package.full_source


def test_package_nvcc_command_matches_paper_flags(j2d5pt):
    package = generate_cuda(make_plan(j2d5pt))
    command = package.nvcc_command(register_limit=64)
    assert "--use_fast_math" in command
    assert "arch=compute_70,code=sm_70" in command
    assert "-maxrregcount=64" in command


def test_hyphenated_names_are_sanitised():
    pattern = load_pattern("j2d9pt-gol")
    package = generate_cuda(make_plan(pattern, bS=(64,)))
    assert "j2d9pt_gol" in package.kernel_name
    assert "-" not in package.kernel_name
