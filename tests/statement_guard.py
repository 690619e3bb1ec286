"""Every statement in a ``src/repro`` function body must run under the test suite.

Run from the repository root::

    python tests/statement_guard.py            # tier-1 under the tracer, then the check
    python tests/statement_guard.py -k wire    # extra arguments go to pytest

The suite runs with ``tests/tracehook`` first on ``PYTHONPATH``, so its
``sitecustomize`` traces the pytest process and every Python child it starts
(``an5d`` subprocesses, ``multiprocessing`` workers).  A statement counts as
run when a line it owns ran; a compound statement also counts when one of its
own statements ran.  Docstrings and ``global``/``nonlocal`` are not counted.

Each statement nobody runs gets one of three fates: a test that asserts what
the statement is for, deletion, or an entry in ``ALLOWED_STATEMENTS``.  An
entry is keyed by module, qualified function name and the statement's first
source line (stripped), so it survives edits above it; it covers every
statement of that function with that text.  Only two kinds of reason qualify,
and the reason says which: ``"platform: ..."`` for a branch only another
platform takes, and ``"untraceable: ..."`` for a path the tracer cannot
observe, naming that path.  The check fails on an unreached statement with no
entry and on an entry that matches no unreached statement.  It prints
``unreached statements: N (A allowlisted)`` last.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
HOOK = Path(__file__).resolve().parent / "tracehook"
REASON_KINDS = ("platform: ", "untraceable: ")

#: ``(module, qualified function, statement text)`` -> why no test runs it.
ALLOWED_STATEMENTS: Dict[Tuple[str, str, str], str] = {}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_BODIES = ("body", "orelse", "finalbody", "handlers")


@dataclass(frozen=True)
class Statement:
    path: str
    module: str
    function: str
    text: str
    lineno: int
    #: Lines of the statement that no statement nested in it covers.
    lines: FrozenSet[int]
    children: Tuple["Statement", ...]

    @property
    def key(self) -> Tuple[str, str, str]:
        return self.module, self.function, self.text

    def ran(self, hits: Set[int]) -> bool:
        return bool(self.lines & hits) or any(child.ran(hits) for child in self.children)

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno} {self.module}.{self.function}: {self.text}"


def _child_statements(node: ast.AST) -> Iterator[ast.stmt]:
    """Statements nested directly in ``node``'s blocks (``except`` bodies too)."""
    if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
        return
    for name in _BODIES:
        for item in getattr(node, name, ()):
            if isinstance(item, ast.ExceptHandler):
                yield from item.body
            else:
                yield item
    for case in getattr(node, "cases", ()):
        yield from case.body


def _is_counted(node: ast.stmt, body: List[ast.stmt]) -> bool:
    """False for ``global``/``nonlocal`` and for ``body``'s docstring."""
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return False
    is_docstring = (
        node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )
    return not is_docstring


def _statement(node: ast.stmt, path: str, module: str, function: str, source: List[str]) -> Statement:
    nested = [child for child in _child_statements(node) if _is_counted(child, [None])]
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    last = node.end_lineno or node.lineno
    if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
        last = max(first, node.body[0].lineno - 1)
    covered = {
        line
        for child in _child_statements(node)
        for line in range(child.lineno, (child.end_lineno or child.lineno) + 1)
    }
    return Statement(
        path=path,
        module=module,
        function=function,
        text=source[node.lineno - 1].strip(),
        lineno=node.lineno,
        lines=frozenset(set(range(first, last + 1)) - covered),
        children=tuple(_statement(child, path, module, function, source) for child in nested),
    )


def _walk(statement: Statement) -> Iterator[Statement]:
    yield statement
    for child in statement.children:
        yield from _walk(child)


def statements(path: Path, module: str, label: str) -> List[Statement]:
    """Every counted statement inside a function body in ``path``."""
    text = path.read_text()
    source = text.splitlines()
    found: List[Statement] = []

    def visit(node: ast.AST, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                inner = (*scope, child.name)
                if isinstance(child, _FUNCTIONS):
                    for item in child.body:
                        if _is_counted(item, child.body):
                            found.extend(_walk(_statement(item, label, module, ".".join(inner), source)))
                visit(child, inner)
            else:
                visit(child, scope)

    visit(ast.parse(text, filename=str(path)), ())
    return found


def _module_name(path: Path, base: Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def package_statements(package: Path, base: Path) -> List[Statement]:
    """Statements of every module under ``package``; modules named from ``base``."""
    return [
        statement
        for path in sorted(package.rglob("*.py"))
        for statement in statements(path, _module_name(path, base), str(path.relative_to(base.parent)))
    ]


def load_hits(trace_dir: Path) -> Dict[str, Set[int]]:
    """Absolute filename -> lines run, merged over every traced process."""
    hits: Dict[str, Set[int]] = defaultdict(set)
    for path in trace_dir.glob("*.json"):
        for filename, lines in json.loads(path.read_text()).items():
            hits[filename].update(lines)
    return hits


def unreached(package: Path, base: Path, hits: Dict[str, Set[int]]) -> List[Statement]:
    return [
        statement
        for statement in package_statements(package, base)
        if not statement.ran(hits.get(str((base.parent / statement.path).resolve()), set()))
    ]


def triage(
    missed: Iterable[Statement], allowed: Dict[Tuple[str, str, str], str]
) -> Tuple[List[Statement], List[Tuple[str, str, str]]]:
    """``(unreached statements with no entry, entries that match none)``."""
    missed = list(missed)
    keys = {statement.key for statement in missed}
    flagged = [statement for statement in missed if statement.key not in allowed]
    return flagged, [key for key in allowed if key not in keys]


def run_traced(trace_dir: Path, pytest_args: List[str]) -> int:
    """Run pytest with every Python process it starts tracing into ``trace_dir``."""
    env = dict(os.environ, STATEMENT_TRACE_DIR=str(trace_dir), STATEMENT_TRACE_ROOT=str(SRC / "repro"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HOOK), str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    command = [sys.executable, "-m", "pytest", "-x", "-q", *pytest_args]
    return subprocess.call(command, cwd=REPO, env=env)


def main(argv: "List[str] | None" = None) -> int:
    pytest_args = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory() as temporary:
        trace_dir = Path(temporary)
        started = time.monotonic()
        status = run_traced(trace_dir, pytest_args)
        print(f"traced test run: {time.monotonic() - started:.0f} s")
        missed = unreached(SRC / "repro", SRC, load_hits(trace_dir))
    flagged, stale = triage(missed, ALLOWED_STATEMENTS)
    for statement in flagged:
        print(f"unreached: {statement}")
    for key in stale:
        print(f"stale allowlist entry (no unreached statement matches it): {key}")
    by_package = Counter(".".join(statement.module.split(".")[:2]) for statement in flagged)
    if by_package:
        print("unreached by package:", ", ".join(f"{name} {n}" for name, n in by_package.most_common()))
    print(f"statements in function bodies: {len(package_statements(SRC / 'repro', SRC))}")
    print(f"unreached statements: {len(missed)} ({len(missed) - len(flagged)} allowlisted)")
    return 1 if status or flagged or stale else 0


if __name__ == "__main__":
    sys.exit(main())
