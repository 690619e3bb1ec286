"""Tests for FLOP accounting and ALU efficiency (Table 3 figures)."""

import pytest

from repro.ir.expr import GridRead
from repro.ir.flops import FlopCount
from repro.ir.stencil import StencilPattern
from repro.stencils.generators import box_stencil, star_stencil
from repro.stencils.library import get_benchmark, load_pattern


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_star2d_flops_match_table3(radius):
    pattern = star_stencil(2, radius)
    assert pattern.flops.total == 8 * radius + 1


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_star3d_flops_match_table3(radius):
    pattern = star_stencil(3, radius)
    assert pattern.flops.total == 12 * radius + 1


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_box2d_flops_match_table3(radius):
    pattern = box_stencil(2, radius)
    assert pattern.flops.total == 2 * (2 * radius + 1) ** 2 - 1


@pytest.mark.parametrize("radius", [1, 2])
def test_box3d_flops_match_table3(radius):
    pattern = box_stencil(3, radius)
    assert pattern.flops.total == 2 * (2 * radius + 1) ** 3 - 1


@pytest.mark.parametrize(
    "name", ["j2d5pt", "j2d9pt", "j2d9pt-gol", "j3d27pt"]
)
def test_named_benchmarks_match_paper_flop_counts(name):
    benchmark = get_benchmark(name)
    pattern = load_pattern(name)
    assert pattern.flops.total == benchmark.paper_flops_per_cell


def test_gradient2d_flops_close_to_paper(gradient2d):
    # The paper counts 19 FLOP/cell; the exact figure depends on how the
    # rsqrt/division fast-math rewrite is attributed, so allow a small margin.
    counted = gradient2d.flops.total
    assert abs(counted - get_benchmark("gradient2d").paper_flops_per_cell) <= 2


def test_division_counted_as_mul_under_fast_math(j2d5pt):
    # --use_fast_math turns j2d5pt's division by a constant into a multiply;
    # a division by a grid value stays a division.
    by_constant = j2d5pt.flops
    by_cell = StencilPattern("by-cell", 2, j2d5pt.expr.lhs / GridRead("A", (0, 0))).flops
    assert by_constant.div == 0
    assert by_cell.div == 1
    assert by_cell.total == by_constant.total


def test_fma_fusion_for_dot_product():
    mix = star_stencil(2, 1).flops
    # 5 products, 4 additions: 4 FMAs plus one leftover multiplication.
    assert mix.fma == 4
    assert mix.mul == 1
    assert mix.add == 0


def test_total_counts_fma_as_two():
    mix = star_stencil(2, 1).flops
    assert mix.total == 2 * mix.fma + mix.mul + mix.add + mix.div + mix.other


def test_instruction_count_counts_fma_once():
    mix = star_stencil(2, 1).flops
    assert mix.instruction_count == mix.fma + mix.mul + mix.add + mix.div + mix.other


def test_alu_efficiency_bounds():
    for pattern in (star_stencil(2, 1), box_stencil(2, 2), load_pattern("gradient2d")):
        eff = pattern.flops.alu_efficiency
        assert 0.5 <= eff <= 1.0


def test_alu_efficiency_perfect_for_pure_fma():
    assert FlopCount(fma=10).alu_efficiency == 1.0


def test_alu_efficiency_half_for_pure_add():
    assert FlopCount(add=10).alu_efficiency == 0.5


def test_empty_mix_efficiency_is_one():
    assert FlopCount().alu_efficiency == 1.0


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
    from repro.ir.stencil import GridSpec
    from repro.model.batch import BatchModelEngine
    from repro.model.gpu_specs import get_gpu
    from repro.model.traffic import compute_traffic

    counted = []
    fused = FlopCount.fused
    monkeypatch.setattr(
        FlopCount, "fused", classmethod(lambda cls, *raw: counted.append(raw) or fused(*raw))
    )
    pattern = star_stencil(3, 2)
    grid = GridSpec((64, 64, 64), 8)
    compute_traffic(pattern, grid, BlockingConfig(bT=2, bS=(32, 32)))
    engine = BatchModelEngine(pattern, grid, get_gpu("V100"))
    HybridTilingBaseline.from_name("V100").simulate(pattern, grid)
    LoopTilingBaseline.from_name("V100").simulate(pattern, grid)
    # 12 adds and 13 multiplications: 12 FMAs and one multiplication left over.
    assert counted == [(12, 13, 0, 0)]
    assert pattern.flops == FlopCount(fma=12, mul=1)
    assert engine.flops_per_cell == pattern.flops.total == 12 * 2 + 1
    assert engine.alu_efficiency == pattern.flops.alu_efficiency
