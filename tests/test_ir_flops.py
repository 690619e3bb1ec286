"""Tests for FLOP accounting and ALU efficiency (Table 3 figures)."""

import pytest

from repro.ir.expr import GridRead
from repro.ir.flops import alu_efficiency, count_flops, flops_per_cell
from repro.stencils.generators import box_stencil, star_stencil
from repro.stencils.library import get_benchmark, load_pattern


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_star2d_flops_match_table3(radius):
    pattern = star_stencil(2, radius)
    assert flops_per_cell(pattern.expr) == 8 * radius + 1


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_star3d_flops_match_table3(radius):
    pattern = star_stencil(3, radius)
    assert flops_per_cell(pattern.expr) == 12 * radius + 1


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_box2d_flops_match_table3(radius):
    pattern = box_stencil(2, radius)
    assert flops_per_cell(pattern.expr) == 2 * (2 * radius + 1) ** 2 - 1


@pytest.mark.parametrize("radius", [1, 2])
def test_box3d_flops_match_table3(radius):
    pattern = box_stencil(3, radius)
    assert flops_per_cell(pattern.expr) == 2 * (2 * radius + 1) ** 3 - 1


@pytest.mark.parametrize(
    "name", ["j2d5pt", "j2d9pt", "j2d9pt-gol", "j3d27pt"]
)
def test_named_benchmarks_match_paper_flop_counts(name):
    benchmark = get_benchmark(name)
    pattern = load_pattern(name)
    assert flops_per_cell(pattern.expr) == benchmark.paper_flops_per_cell


def test_gradient2d_flops_close_to_paper(gradient2d):
    # The paper counts 19 FLOP/cell; the exact figure depends on how the
    # rsqrt/division fast-math rewrite is attributed, so allow a small margin.
    counted = flops_per_cell(gradient2d.expr)
    assert abs(counted - get_benchmark("gradient2d").paper_flops_per_cell) <= 2


def test_division_counted_as_mul_under_fast_math(j2d5pt):
    # --use_fast_math turns j2d5pt's division by a constant into a multiply;
    # a division by a grid value stays a division.
    by_constant = count_flops(j2d5pt.expr)
    by_cell = count_flops(j2d5pt.expr.lhs / GridRead("A", (0, 0)))
    assert by_constant.div == 0
    assert by_cell.div == 1
    assert by_cell.total == by_constant.total


def test_fma_fusion_for_dot_product():
    mix = count_flops(star_stencil(2, 1).expr)
    # 5 products, 4 additions: 4 FMAs plus one leftover multiplication.
    assert mix.fma == 4
    assert mix.mul == 1
    assert mix.add == 0


def test_total_counts_fma_as_two():
    mix = count_flops(star_stencil(2, 1).expr)
    assert mix.total == 2 * mix.fma + mix.mul + mix.add + mix.div + mix.other


def test_instruction_count_counts_fma_once():
    mix = count_flops(star_stencil(2, 1).expr)
    assert mix.instruction_count == mix.fma + mix.mul + mix.add + mix.div + mix.other


def test_alu_efficiency_bounds():
    for pattern in (star_stencil(2, 1), box_stencil(2, 2), load_pattern("gradient2d")):
        eff = alu_efficiency(count_flops(pattern.expr))
        assert 0.5 <= eff <= 1.0


def test_alu_efficiency_perfect_for_pure_fma():
    from repro.ir.flops import FlopCount

    assert alu_efficiency(FlopCount(fma=10)) == 1.0


def test_alu_efficiency_half_for_pure_add():
    from repro.ir.flops import FlopCount

    assert alu_efficiency(FlopCount(add=10)) == 0.5


def test_empty_mix_efficiency_is_one():
    from repro.ir.flops import FlopCount

    assert alu_efficiency(FlopCount()) == 1.0


def test_reads_per_cell_matches_point_count():
    assert len(star_stencil(2, 2).reads) == 9
    assert len(box_stencil(2, 1).reads) == 9


def test_gradient_reads_count_duplicates(gradient2d):
    # gradient2d reads the centre cell many times.
    assert len(gradient2d.reads) > len(gradient2d.offsets)


def test_a_pattern_counts_its_flops_once(monkeypatch):
    from repro.baselines.hybrid_tiling import HybridTilingBaseline
    from repro.baselines.loop_tiling import LoopTilingBaseline
    from repro.core.config import BlockingConfig
    from repro.ir import stencil as stencil_module
    from repro.ir.stencil import GridSpec
    from repro.model.batch import BatchModelEngine
    from repro.model.gpu_specs import get_gpu
    from repro.model.traffic import compute_traffic

    counted = []
    monkeypatch.setattr(
        stencil_module, "count_flops", lambda expr: counted.append(expr) or count_flops(expr)
    )
    pattern = star_stencil(3, 2)
    grid = GridSpec((64, 64, 64), 8)
    compute_traffic(pattern, grid, BlockingConfig(bT=2, bS=(32, 32)))
    engine = BatchModelEngine(pattern, grid, get_gpu("V100"))
    HybridTilingBaseline.from_name("V100").simulate(pattern, grid)
    LoopTilingBaseline.from_name("V100").simulate(pattern, grid)
    assert counted == [pattern.expr]
    assert pattern.flops == count_flops(pattern.expr)
    assert engine.flops_per_cell == pattern.flops.total == 12 * 2 + 1
