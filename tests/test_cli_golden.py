"""Golden pins of the ``an5d`` command-line contract.

Two layers are pinned:

* the *structure* of every parser (24 of them: the root, each subcommand and
  each nested subcommand) — option strings, dest, default, type, choices,
  nargs, required, metavar, help text and action class, hashed per parser.
  The structure is pinned rather than the rendered ``--help`` text because
  argparse's rendering differs between Python versions;
* the exact stdout, stderr and exit code of representative invocations, on
  success and on the error paths (long outputs by sha256; the exhaustive
  sweep's wall-clock line and the package version are masked).

A refactor of the entry layer must leave every pin unchanged.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

# -- parser structure -----------------------------------------------------------------


def _parsers(parser: argparse.ArgumentParser, path: str = "an5d"):
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, f"{path} {name}")


def _structure_digest(parser: argparse.ArgumentParser) -> str:
    rows = [
        [
            action.option_strings,
            action.dest,
            repr(action.default),
            getattr(action.type, "__name__", repr(action.type)),
            None if action.choices is None else [str(c) for c in action.choices],
            repr(action.nargs),
            action.required,
            repr(action.metavar),
            action.help,
            type(action).__name__,
        ]
        for action in parser._actions
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


PARSER_DIGESTS = {
    "an5d": "883b57e46f6fbde1c2d3998d2dc72b018cc46950fe92822e2341f6e3bbdf83ab",
    "an5d list": "3c75d85ff95e00255c7b1724fd05b07a75d3e0576a1141ac870b847904567255",
    "an5d compile": "2bcf23641571ea0df96633c397301dac026e60e8d28bb407e8cd547ba78f2633",
    "an5d tune": "faf731ccb984ebe834711733af552331f5a5f39fd5aa4b4c888cecbfbea5f136",
    "an5d exhaustive": "faf731ccb984ebe834711733af552331f5a5f39fd5aa4b4c888cecbfbea5f136",
    "an5d predict": "e4aad6f9c17cf614b3a98922dab9825c98d578f3a7a9a9ece37a069022ba799d",
    "an5d verify": "ceb573d17199461fd6f66ccfb89e0eb943829c30dabfa28e78dad09f5bcc72e8",
    "an5d compare": "a285116dacd565c0bf9830b1482c60b4c8186db2a395fa0bfacfd67f3033a55c",
    "an5d fuzz": "ffc25bea8455940248c7831da982a9a66c8a282f9aa966f8a3fe60a1dcd53eee",
    "an5d campaign": "5e8a79599b32e9cfeeabdc31ccc55c5484f94c91b17f93ca69336caec088207e",
    "an5d campaign run": "62c67cf49cb670923a573dc4b2ec6a7ac3931e49f6992679ac852db0b31b7aa0",
    "an5d campaign status": "f1bf479b0050d75cb2d97adcf728254091e3240dace333e1d1280976374459f0",
    "an5d campaign report": "85c2bcec53d85fc8eadeded019f9dc39f4be4e99ad569bff64c199ef10337940",
    "an5d campaign export": "12bd81a8f777b617ea1a0d8f9496b284a0c9611be9e328a45e2d3348dc2defa8",
    "an5d campaign watch": "ee7a58d0997c1a377acf7c81d995152bdc396a60581fd7118a4ad694d645edfa",
    "an5d campaign prune": "d409cb049b4216cc4d527ad411a05ba49f04497a8b814affb9adf3f1dd35ca17",
    "an5d serve": "7e8516458a9b8628c7d5fc7376a213332edfafc33effa34a844890bef94f533e",
    "an5d top": "3574593457cb250f62a7b67492b58c6aa3130b2c3705b59f24e732106c165cce",
    "an5d profile": "82a978729bc62065b9de86bdb9eb2ad0f9d9290ae9198e43e932055858fda3c7",
    "an5d cluster": "9ce7aff16f554d76e396e37bc7e17e00968414890359a10546dc606777b18688",
    "an5d cluster up": "c8963b01fce4d31df8e90c76b4556b437de5b737938998cf13f75da368f05a8b",
    "an5d cluster coordinator": "761ed5789dfe6a718678a934ae5cc90f0d5e341bb565e91eef43862bb346a4b0",
    "an5d cluster status": "60103834d58b3df3ec40c0b79f24fe0d605a771857a20f2b1daf340a6194495e",
    "an5d cluster submit": "d186679f2489240000b7c5b1500797bf0a94d657305484199258fa1697272ef1",
}


def test_every_parser_is_pinned():
    assert [path for path, _ in _parsers(build_parser())] == list(PARSER_DIGESTS)


@pytest.mark.parametrize("path", list(PARSER_DIGESTS))
def test_parser_structure(path):
    parsers = dict(_parsers(build_parser()))
    assert _structure_digest(parsers[path]) == PARSER_DIGESTS[path]



# -- command lines outside the tests ---------------------------------------------------

REPO = Path(__file__).resolve().parents[1]

#: Everything from the first shell operator on (pipe, redirect, background).
_SHELL_TAIL = re.compile(r"\s(?:\|\|?|&&?|;|\d*>)")


def _scripted_command_lines():
    """``(where, argv)`` of every ``python -m repro.cli`` command a CI step runs
    (continuation lines joined) and every argv list a benchmark script passes
    to ``subprocess`` (a variable argument becomes a placeholder)."""
    for path in sorted((REPO / ".github" / "workflows").glob("*.yml")):
        for line in path.read_text().replace("\\\n", " ").splitlines():
            start = line.find("python -m repro.cli")
            if start >= 0:
                command = " ".join(_SHELL_TAIL.split(line[start:] + " ")[0].split())
                yield f"{path.name}: {command}", shlex.split(command)[3:]
    for directory in ("benchmarks", "perfbench"):
        for path in sorted((REPO / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.List):
                    argv = [e.value if isinstance(e, ast.Constant) else "VALUE" for e in node.elts]
                    if "repro.cli" in argv:
                        yield f"{path.relative_to(REPO)}:{node.lineno}", argv[argv.index("repro.cli") + 1 :]


def test_every_scripted_command_line_parses(capsys):
    """Deleting a flag a CI step or benchmark still passes fails here, not in CI."""
    commands = list(_scripted_command_lines())
    assert len(commands) >= 30
    assert any(where.startswith("perfbench/service_mixed.py") for where, _ in commands)
    rejected = []
    for where, argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            rejected.append(f"{where}\n  {capsys.readouterr().err.strip()}")
    assert not rejected, "argparse rejects:\n" + "\n".join(rejected)


# -- invocations ----------------------------------------------------------------------

_LONG = 2000  # outputs longer than this are pinned by sha256


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    out, err = (
        re.sub(
            r"configs in \S+s \(\S+ configs/s\)",
            "configs in <elapsed> (<rate>)",
            text.replace(repro.__version__, "<version>"),
        )
        for text in (captured.out, captured.err)
    )
    if len(out) > _LONG:
        out = "sha256:" + hashlib.sha256(out.encode("utf-8")).hexdigest()
    return [code, out, err]


COMMANDS = {
    "list": ["list"],
    "compile": ["compile", "j2d5pt"],
    "tune": ["tune", "j2d5pt"],
    "predict": ["predict", "j2d5pt"],
    "verify": ["verify", "j2d5pt"],
    "compare": ["compare", "j2d5pt"],
    "exhaustive": ["exhaustive", "j2d5pt"],
    "fuzz-show": ["fuzz", "--show", "fuzz-7-0"],
    "compile-missing-input": ["compile", "no-such-stencil.c"],
    "unknown-benchmark": ["tune", "no-such-stencil"],
    "unknown-gpu": ["tune", "j2d5pt", "--gpu", "X100"],
    "fuzz-show-bad-name": ["fuzz", "--show", "not-a-fuzz-name"],
    "missing-store-status": ["campaign", "status", "--store", "missing.sqlite"],
    "missing-store-report": ["campaign", "report", "--store", "missing.sqlite"],
    "missing-store-export": ["campaign", "export", "--store", "missing.sqlite", "-o", "x.csv"],
    "missing-store-prune": ["campaign", "prune", "--store", "missing.sqlite"],
    "missing-store-cluster-status": ["cluster", "status", "--store", "missing.sqlite"],
}

STORE_COMMANDS = {
    "status": ["campaign", "status", "--store", "golden.sqlite"],
    "report-table5": ["campaign", "report", "--store", "golden.sqlite"],
    "report-leaderboard": [
        "campaign", "report", "--store", "golden.sqlite", "--report", "leaderboard",
    ],
    "report-accuracy": ["campaign", "report", "--store", "golden.sqlite", "--report", "accuracy"],
    "report-summary": ["campaign", "report", "--store", "golden.sqlite", "--report", "summary"],
    "export": ["campaign", "export", "--store", "golden.sqlite", "-o", "golden.jsonl"],
    "prune-listing": ["campaign", "prune", "--store", "golden.sqlite"],
    "prune-current-without-force": [
        "campaign", "prune", "--store", "golden.sqlite", "--code-version", repro.__version__,
    ],
}

EXPECTED = {
    "list": [
        0,
        (
            "name           dims radius  FLOP/cell  description\n"
            "star2d1r          2      1          9  synthetic 2D star stencil of order 1\n"
            "box2d1r           2      1         17  synthetic 2D box stencil of order 1\n"
            "star2d2r          2      2         17  synthetic 2D star stencil of order 2\n"
            "box2d2r           2      2         49  synthetic 2D box stencil of order 2\n"
            "star2d3r          2      3         25  synthetic 2D star stencil of order 3\n"
            "box2d3r           2      3         97  synthetic 2D box stencil of order 3\n"
            "star2d4r          2      4         33  synthetic 2D star stencil of order 4\n"
            "box2d4r           2      4        161  synthetic 2D box stencil of order 4\n"
            "star3d1r          3      1         13  synthetic 3D star stencil of order 1\n"
            "box3d1r           3      1         53  synthetic 3D box stencil of order 1\n"
            "star3d2r          3      2         25  synthetic 3D star stencil of order 2\n"
            "box3d2r           3      2        249  synthetic 3D box stencil of order 2\n"
            "star3d3r          3      3         37  synthetic 3D star stencil of order 3\n"
            "box3d3r           3      3        685  synthetic 3D box stencil of order 3\n"
            "star3d4r          3      4         49  synthetic 3D star stencil of order 4\n"
            "box3d4r           3      4       1457  synthetic 3D box stencil of order 4\n"
            "j2d5pt            2      1         10  2D Jacobi 5-point (Fig. 4)\n"
            "j2d9pt            2      2         18  2D Jacobi 9-point, 2nd-order star\n"
            "j2d9pt-gol        2      1         18  2D 9-point box (game-of-life shape)\n"
            "gradient2d        2      1         19  2D gradient with sqrt and division\n"
            "j3d27pt           3      1         54  3D Jacobi 27-point box\n"
        ),
        "",
    ],
    "compile": [
        0,
        "sha256:89923911150e93db5e3c7e877064182f7e2d91e051659505b99006e8151633f8",
        "",
    ],
    "tune": [
        0,
        (
            "best configuration for j2d5pt on V100 (float):\n"
            "         pattern: j2d5pt\n"
            "             gpu: Tesla V100 SXM2\n"
            "           dtype: float\n"
            "              bT: 11\n"
            "              bS: 512\n"
            "              hS: 1024\n"
            "            regs: 32\n"
            "    tuned_gflops: 5288.4\n"
            "    model_gflops: 8371.7\n"
            "  model accuracy: 0.63\n"
        ),
        "",
    ],
    "predict": [
        0,
        (
            "j2d5pt on V100 (float), bT=4 bS=256 hS=full regs=-:\n"
            "  model:        3459.4 GFLOP/s  (bottleneck: global_memory)\n"
            "  simulated:    1347.2 GFLOP/s  (bottleneck: shared_memory)\n"
        ),
        "",
    ],
    "verify": [
        0,
        "OK: blocked execution vs reference, max relative error 0.000e+00\n",
        "",
    ],
    "compare": [
        0,
        (
            "j2d5pt on V100 (float):\n"
            "  Loop Tiling        508.9 GFLOP/s\n"
            "  Hybrid Tiling     3094.0 GFLOP/s\n"
            "  STENCILGEN        2649.0 GFLOP/s\n"
            "  AN5D (Sconf)      3159.1 GFLOP/s\n"
            "  AN5D (Tuned)      5288.4 GFLOP/s\n"
            "  AN5D (Model)      8371.7 GFLOP/s\n"
        ),
        "",
    ],
    "exhaustive": [
        0,
        (
            "exhaustive optimum for j2d5pt on V100 (float), 576 simulated runs:\n"
            "              bT: 11\n"
            "              bS: 512\n"
            "              hS: 1024\n"
            "            regs: 32\n"
            "          gflops: 5288.4\n"
            "       evaluated: 576\n"
            "evaluated 576 configs in <elapsed> (<rate>)\n"
        ),
        "",
    ],
    "fuzz-show": [
        0,
        "sha256:72a23d216a88865ce16b30334a089a51b4eeb38aea54d3e0c3e756e9a5111b5a",
        "",
    ],
    "compile-missing-input": [
        2,
        "",
        "error: 'no-such-stencil.c' is neither a benchmark name nor a file\n",
    ],
    "unknown-benchmark": [
        2,
        "",
        "error: unknown benchmark 'no-such-stencil'; available: star2d1r, box2d1r, star2d2r, box2d2r, star2d3r, box2d3r, star2d4r, box2d4r, star3d1r, box3d1r, star3d2r, box3d2r, star3d3r, box3d3r, star3d4r, box3d4r, j2d5pt, j2d9pt, j2d9pt-gol, gradient2d, j3d27pt, fdtd2d, fdtd3d, astar2d1x3r, astar3d2x1x1r, vstar2d2r-s7, star/box r1-8, astar*, vstar*, fuzz-SEED-INDEX\n",
    ],
    "unknown-gpu": [
        2,
        "",
        "error: unknown GPU 'X100'; available: V100, P100\n",
    ],
    "fuzz-show-bad-name": [
        2,
        "",
        "error: 'not-a-fuzz-name' is not a fuzz stencil name (expected fuzz-SEED-INDEX)\n",
    ],
    "missing-store-status": [
        2,
        "",
        "error: no campaign store at 'missing.sqlite'\n",
    ],
    "missing-store-report": [
        2,
        "",
        "error: no campaign store at 'missing.sqlite'\n",
    ],
    "missing-store-export": [
        2,
        "",
        "error: no campaign store at 'missing.sqlite'\n",
    ],
    "missing-store-prune": [
        2,
        "",
        "error: no campaign store at 'missing.sqlite'\n",
    ],
    "missing-store-cluster-status": [
        2,
        "",
        "error: no campaign store at 'missing.sqlite'\n",
    ],
    "status": [
        0,
        (
            "Campaign store summary\n"
            "\n"
            "kind     status  results\n"
            "-------  ------  -------\n"
            "predict  ok      2      \n"
            "tune     ok      2      \n"
        ),
        "",
    ],
    "report-table5": [
        0,
        (
            "Table 5 matrix (tuned_gflops)\n"
            "\n"
            "pattern   V100/float\n"
            "--------  ----------\n"
            "j2d5pt    8.8       \n"
            "star3d1r  21.2      \n"
        ),
        "",
    ],
    "report-leaderboard": [
        0,
        (
            "Campaign leaderboard (tune)\n"
            "\n"
            "rank  pattern   gpu   dtype  gflops  config                     \n"
            "----  --------  ----  -----  ------  ---------------------------\n"
            "1     star3d1r  V100  float  21.2    bT=5 bS=32x32 hS=128 regs=-\n"
            "2     j2d5pt    V100  float  8.8     bT=5 bS=512 hS=256 regs=-  \n"
        ),
        "",
    ],
    "report-accuracy": [
        0,
        (
            "Model accuracy by GPU and dtype\n"
            "\n"
            "gpu   dtype  stencils  mean   min    max  \n"
            "----  -----  --------  -----  -----  -----\n"
            "V100  float  2         0.012  0.011  0.014\n"
        ),
        "",
    ],
    "report-summary": [
        0,
        (
            "Campaign store summary\n"
            "\n"
            "kind     status  results\n"
            "-------  ------  -------\n"
            "predict  ok      2      \n"
            "tune     ok      2      \n"
        ),
        "",
    ],
    "export": [
        0,
        "exported 4 result(s) to golden.jsonl\n",
        "",
    ],
    "prune-listing": [
        0,
        (
            "code version      results  note\n"
            "<version>                   4  current\n"
        ),
        "",
    ],
    "prune-current-without-force": [
        2,
        "",
        "error: '<version>' is the current code version; pass --force to drop current results\n",
    ],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run(COMMANDS[name], capsys) == EXPECTED[name]
    assert not (tmp_path / "missing.sqlite").exists()


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    """A tiny two-stencil tune+predict campaign store."""
    directory = tmp_path_factory.mktemp("golden")
    code = main([
        "campaign", "run", "--store", str(directory / "golden.sqlite"),
        "--benchmarks", "j2d5pt,star3d1r", "--kinds", "tune,predict",
        "--time-steps", "10", "--interior-2d", "64x64", "--interior-3d", "16x16x16",
    ])
    assert code == 0
    return directory


@pytest.mark.parametrize("name", list(STORE_COMMANDS))
def test_store_command_output(name, golden_store, monkeypatch, capsys):
    monkeypatch.chdir(golden_store)
    capsys.readouterr()
    assert _run(STORE_COMMANDS[name], capsys) == EXPECTED[name]
