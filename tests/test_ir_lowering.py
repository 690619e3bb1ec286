"""The native lowering: its pinned output, its cost per check, and the
fold every lowering of the expression tree runs on.

A native library's build key is a digest of its C source, so the emitted
text must not change by a byte when the lowering is reworked: that would
rebuild every cached library.  The digests below pin it for every Table-3
stencil and for a radius-5 3-D box, at the one loop order a native kernel
has.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys

import pytest

from repro.codegen import generate_cuda
from repro.core.config import BlockingConfig
from repro.core.transform import an5d_transform
from repro.frontend.stencil_detect import parse_stencil
from repro.ir import compile as ir_compile
from repro.ir import expr as ir_expr
from repro.ir.compile import clear_kernel_cache, generate_native_source
from repro.ir.expr import BinOp, Call, Const, GridRead, UnaryOp, fold
from repro.ir.stencil import GridSpec, StencilPattern
from repro.model import clear_model_caches
from repro.sim.executor import BlockedStencilExecutor
from repro.stencils.generators import box_stencil
from repro.stencils.library import BENCHMARKS, get_benchmark, load_pattern
from repro.stencils.reference import ReferenceExecutor
from repro.tuning.autotuner import AutoTuner
from repro.tuning.search_space import default_search_space

#: sha256 of ``generate_native_source(pattern)``, printed at the stream-last
#: loop order ``(1, .., ndim-1, 0)`` both executors of a check run.
TABLE3_SOURCES = {
    ('star2d1r', 'float'): '2678c5f4ca67cafe8e147b7ee6c7147c5a407b8c25d3ee0b6bbc1ac689ca27a6',
    ('star2d1r', 'double'): '57f0d65e15f3b1748a296d41009bae7db49387426d08d17b1bbf1fd354374ded',
    ('box2d1r', 'float'): '57dee67651bba64e782702eedc7e289d0c0620baab8cc5bb517d5543feed3349',
    ('box2d1r', 'double'): '22f69e538d16787a46735fc9ebf7f2c223a3ccdb30819407d3d68fb3352ba047',
    ('star2d2r', 'float'): '76b28c8378fa0d6ac31d8a20b98f46d3b2c14a41847f9f4de771b5eb1ca4a5dd',
    ('star2d2r', 'double'): '1eb14b7862605d63654531214efcae153de3d78d04943f753da4a94fbd178ee9',
    ('box2d2r', 'float'): '662dda42b966759656398ad7b186c529ebcc0b416b6288a038b001dcbd3c7caa',
    ('box2d2r', 'double'): 'b11f1e788d8cd9daee5a334a1de2fccc124024989cf1842e82fdf930ad167f8a',
    ('star2d3r', 'float'): '61518aa6e1facaef0a3e96693fc88de23c2d9216f1f68e0ac8209f1a8095329a',
    ('star2d3r', 'double'): '189880f9ccdb141f665ae5b7a977c47680655059213c8661eb69786ef45e6304',
    ('box2d3r', 'float'): '0809777b9080af83f651b3e570ca72d1753710385e8338d8d6c8fe585032d0da',
    ('box2d3r', 'double'): '51b470a91836e64a12d092b031a039d9e72833cc4dc27066faae8d3630832cb4',
    ('star2d4r', 'float'): '748af2ba7a599b36161fd40b1df3ea5302a7aef5c0327320799d49ac5aa6208c',
    ('star2d4r', 'double'): '7c733c3e468f5ea385b3675cd253db94e253574e659b2b0a2a3ddb21995db62f',
    ('box2d4r', 'float'): '4ca8f1ddf7e18f15ab1a29259ebd4ca86629aca0fd55c45c4743d9c8bf7ec4f1',
    ('box2d4r', 'double'): 'ae3d0a544646eb3ffc224060871f00b5573676fac3956aa841f8deb0abe4f7b2',
    ('star3d1r', 'float'): 'c5186f40147fb82ca621e0d5a4cab3f238b8efd884152a9c95dc1c173112b55a',
    ('star3d1r', 'double'): '182ce034c7bd2150b54f3f3da88b7875cb9d55c3bd4f5a5346efde4de75829f3',
    ('box3d1r', 'float'): '441f6d460197bd7de56ee5facd5e226db8c77f89a5889243b86b6c1d5bc40841',
    ('box3d1r', 'double'): '50a67f313199e3309b101158bd7849a122e96ec56765783da3846b4929953903',
    ('star3d2r', 'float'): '72c2b8cce9c5d7ae92c04465b7b0cc1ef8a84ee0a4acce55cf1b9697d546299c',
    ('star3d2r', 'double'): '27764ce7b995ea9fd12c7a76da5c6906874851d7fe50ec5aff9fa1c8a69b0942',
    ('box3d2r', 'float'): '639aeefb3401e7bf491c5ceb04de34f22700a31e90ef6efe8de1a488705c4816',
    ('box3d2r', 'double'): '4a7dcdd1cd58178109c6e3ac5b6be8692cff9b78fbce1474d7b07969c5062ade',
    ('star3d3r', 'float'): '28793e47d22b1596fd73bb5e80caebde4ac03d7f564a82b12220600e1ea6b8d1',
    ('star3d3r', 'double'): '7a5f65752ba6792870f9b9516f7c6d779d8e6d5e422ef81c4f98b28182a31927',
    ('box3d3r', 'float'): 'b27f0ca9ecd83f01f8478354e2732e7051a7aeaccb0568224577cb231b259d31',
    ('box3d3r', 'double'): 'ab7a1d59fc7ab41dfe7de8709fbad500fb270a82bf19143f7836cc393896f070',
    ('star3d4r', 'float'): '2fc4a47050ea433bc4b5491b0a3d4ed425dd880653083d93f6c627628e959229',
    ('star3d4r', 'double'): 'e3e99b05a8c8a0973996d6b583b450fc230600f33e493bb866e801aa4c463bdb',
    ('box3d4r', 'float'): 'bc38a5d4de53c1a8bfdfbb6099c4931eb861af0e5b3673826b842f2b4c648106',
    ('box3d4r', 'double'): '32e7a26069315a29022ae70ac9e29e6ce703d6ae0914d0aece647c41c6668854',
    ('j2d5pt', 'float'): '315e975a54cc0a2b7842ae4b1e6d15bb9973f08ea42a55116df010ce4c77a72d',
    ('j2d5pt', 'double'): '059bbb33c36eca88e860a3b135208f49f5303438afd963dac06d530fe991bac3',
    ('j2d9pt', 'float'): '14fb9eae62d619c52cca555fada471e2fb0ec648b0d60ba574902421d260884d',
    ('j2d9pt', 'double'): '4fc05652e1384e2e73559b46162a99c80d40f8bc6757f2903b69bffd8eccb5a8',
    ('j2d9pt-gol', 'float'): '489da6bd7ed878bddda1da6cbc9b6fccb7803cca2068269b2624bc8d1c330cef',
    ('j2d9pt-gol', 'double'): 'd9db9de441205558cc866a2c11352b4739c8db3e1df232069538f2ad8e83c9b1',
    ('gradient2d', 'float'): 'd2cfe38e005e0882ff54d0fd2c0bd22a928cd094e82c144907db4179313cf9e6',
    ('gradient2d', 'double'): 'a7744320c4f93b723d05d6426f05032b77cf887e0fd643db12f42ea6851604fb',
    ('j3d27pt', 'float'): '2fb5d3eef5c6f7dd10398c20e574b0fa4105144cf2b0755c9f2c9df24e2015be',
    ('j3d27pt', 'double'): '15b58cea1783d72af91289c370e03bba8bec95ddf999988e0342ef6379455ff3',
}

#: box3d5r in double (1,331 reads, eleven runs).
BOX3D5R_SOURCE = "2d5244e211c789c713cbd45ac1262fa7a0d7636dbb9cbf2f01ccfd7d7e82f759"


def _digest(pattern: StencilPattern) -> str:
    return hashlib.sha256(generate_native_source(pattern).encode()).hexdigest()


def test_table3_native_sources_are_pinned():
    assert len(TABLE3_SOURCES) == 2 * len(BENCHMARKS)
    for (name, dtype), digest in TABLE3_SOURCES.items():
        assert _digest(load_pattern(name, dtype)) == digest, (name, dtype)


def test_a_radius5_box_and_a_split_body_are_pinned():
    box3d5r = dataclasses.replace(box_stencil(3, 5), dtype="double")
    assert _digest(box3d5r) == BOX3D5R_SOURCE
    # box3d2r in float (249 statements) runs as two sweeps.
    box3d2r = box_stencil(3, 2)
    assert generate_native_source(box3d2r).count("for (ptrdiff_t k") == 2
    assert _digest(box3d2r) == TABLE3_SOURCES["box3d2r", "float"]


# ---------------------------------------------------------------------------
# One lowering per check
# ---------------------------------------------------------------------------


def _route(monkeypatch, label: str, replacement) -> None:
    """Bind ``replacement`` wherever a ``repro`` module bound ``ir.expr``'s
    ``label`` (``walk`` or ``fold``)."""
    real = getattr(ir_expr, label)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, label, None) is real:
            monkeypatch.setattr(module, label, replacement)


def _count_traversals(monkeypatch) -> dict:
    """Route every ``walk`` and ``fold`` that a ``repro`` module bound
    through a counter of the trees they were called on."""
    seen = {"walk": [], "fold": []}
    for label, real in (("walk", ir_expr.walk), ("fold", ir_expr.fold)):

        def counted(expr, *args, _label=label, _real=real):
            seen[_label].append(expr)
            return _real(expr, *args)

        _route(monkeypatch, label, counted)
    return seen


def _count_visits(monkeypatch) -> list:
    """Route every ``walk`` and ``fold`` that a ``repro`` module bound
    through a counter of the nodes they visit (``visits[0]``)."""
    visits = [0]
    real_walk, real_fold = ir_expr.walk, ir_expr.fold

    def walk(expr):
        for node in real_walk(expr):
            visits[0] += 1
            yield node

    def fold(expr, combine):
        def counted(node, args):
            visits[0] += 1
            return combine(node, args)

        return real_fold(expr, counted)

    _route(monkeypatch, "walk", walk)
    _route(monkeypatch, "fold", fold)
    return visits


def test_a_box3d4r_tune_item_walks_its_tree_at_most_twice(monkeypatch):
    # The item perfbench's table3-tune times: C source -> tuned config -> CUDA.
    # Validation walks the tree once and deriving its FLOP mix and division
    # costs no more; associativity visits each of the 729 terms once more.
    benchmark = get_benchmark("box3d4r")
    nodes = sum(1 for _ in ir_expr.walk(load_pattern("box3d4r").expr))
    visits = _count_visits(monkeypatch)
    clear_model_caches()
    pattern = parse_stencil(benchmark.source, name="box3d4r", dtype="float").pattern
    grid = benchmark.default_grid()
    tuner = AutoTuner("V100", top_k=5)
    space = default_search_space(pattern)
    ranked = tuner.rank(pattern, grid, space)
    result = tuner.tune_ranked(pattern, grid, ranked, explored=space.size())
    assert generate_cuda(an5d_transform(pattern, result.best_config)).kernel_source
    assert nodes == 2915 and 0 < visits[0] <= 2 * nodes


def test_a_box3d4r_check_lowers_its_tree_once(monkeypatch):
    # Made before counting: the pattern's own validation walk is its one.
    pattern = load_pattern("box3d4r", "double")
    grid = GridSpec((24, 24, 24), 4)
    config = next(
        config
        for config in (BlockingConfig(bT=bT, bS=(16, 16)) for bT in (4, 3, 2, 1))
        if config.is_valid(pattern)
    )
    # Count the traversals, not a build: the entry point is a stand-in.
    monkeypatch.setattr(ir_compile, "_native_compiler", lambda: "cc")
    monkeypatch.setattr(ir_compile, "_native_entry_point", lambda compiler, source, ndim: len)
    seen = _count_traversals(monkeypatch)
    clear_kernel_cache()
    try:
        executor = BlockedStencilExecutor(pattern, grid, config)
        reference = ReferenceExecutor(pattern)
    finally:
        clear_kernel_cache()
    assert executor.kernel.mode == "auto:native" and reference.kernel is executor.kernel
    assert (len(seen["walk"]), len(seen["fold"])) == (0, 1)
    assert seen["fold"][0] is pattern.expr


def test_a_pattern_keeps_what_its_validation_walk_visits():
    pattern = StencilPattern(
        "calls",
        2,
        BinOp("+", Call("sqrt", (GridRead("A", (0, 1)),)), Call("fabs", (GridRead("A", (0, 1)),))),
    )
    assert [read.offset for read in pattern.reads] == [(0, 1), (0, 1)]
    assert pattern.calls == {"sqrt", "fabs"}
    assert ir_compile.native_supported(pattern)
    assert dataclasses.replace(pattern, dtype="double").calls == pattern.calls
    assert load_pattern("box3d4r", "double").calls == frozenset()


# ---------------------------------------------------------------------------
# fold
# ---------------------------------------------------------------------------


def _fold_recursive(expr, combine):
    return combine(expr, [_fold_recursive(child, combine) for child in expr.children()])


def _random_tree(rng: random.Random, depth: int, pool: list):
    """A random expression of every node kind; about one subtree in five is
    an earlier one reused, so trees share subtrees."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.1:
        node = (
            Const(rng.choice((0.5, -0.0, 2.0, rng.uniform(-4, 4))))
            if rng.random() < 0.4
            else GridRead("A", (rng.randint(-2, 2), rng.randint(-2, 2)))
        )
    else:
        kind = rng.choice(("bin", "bin", "bin", "neg", "call1", "call2"))
        if kind == "bin":
            node = BinOp(
                rng.choice("+-*/"),
                _random_tree(rng, depth - 1, pool),
                _random_tree(rng, depth - 1, pool),
            )
        elif kind == "neg":
            node = UnaryOp("-", _random_tree(rng, depth - 1, pool))
        elif kind == "call1":
            node = Call(rng.choice(("sqrt", "fabs", "exp")), (_random_tree(rng, depth - 1, pool),))
        else:
            node = Call(
                rng.choice(("min", "fmax")),
                (_random_tree(rng, depth - 1, pool), _random_tree(rng, depth - 1, pool)),
            )
    pool.append(node)
    return node


@pytest.mark.parametrize("seed", range(40))
def test_fold_matches_a_recursive_fold_on_random_trees(seed):
    rng = random.Random(seed)
    expr = _random_tree(rng, rng.randint(2, 10), [])

    def recorder(calls):
        def combine(node, operands):
            calls.append((node, list(operands)))
            return (type(node).__name__, len(calls), tuple(operands))

        return combine

    expected_calls, calls = [], []
    expected = _fold_recursive(expr, recorder(expected_calls))
    assert fold(expr, recorder(calls)) == expected
    assert len(calls) == len(expected_calls)
    assert all(
        node is expected_node and operands == expected_operands
        for (node, operands), (expected_node, expected_operands) in zip(calls, expected_calls)
    )
