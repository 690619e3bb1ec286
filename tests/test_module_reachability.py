"""Every ``repro`` module must be reachable from a real entry point.

The entry points are the ``an5d`` CLI, ``repro.api``, the ``repro`` package
itself and every script under ``benchmarks/``, ``perfbench/`` and
``examples/``.  The test walks the import graph of those files (top-level,
function-local and relative imports alike) and fails, naming the module, if
some ``repro.*`` module is reached only from ``tests/``: such a module is
either missing a caller or should be deleted.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Container

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
SCRIPT_DIRS = ("benchmarks", "perfbench", "examples")
ROOT_MODULES = ("repro", "repro.api", "repro.cli")


def _module_name(path: Path, base: Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path, module: str, known: Container[str]) -> set[str]:
    """Names of the modules ``path`` imports, relative imports resolved.

    ``from pkg import name`` counts ``pkg.name`` too when it is a ``known``
    module rather than an attribute of ``pkg``.
    """
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            found.update(
                f"{base}.{alias.name}" for alias in node.names if f"{base}.{alias.name}" in known
            )
    return found


def _with_parents(name: str) -> list[str]:
    """``a.b.c`` -> ``[a, a.b, a.b.c]``: importing a module runs its packages."""
    parts = name.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def unreachable_modules() -> list[str]:
    modules = {_module_name(path, SRC): path for path in SRC.rglob("*.py")}
    frontier: deque[str] = deque(ROOT_MODULES)
    for directory in SCRIPT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            frontier.extend(_imports(path, _module_name(path, REPO), modules))
    reached: set[str] = set()
    while frontier:
        for name in _with_parents(frontier.popleft()):
            if name in modules and name not in reached:
                reached.add(name)
                frontier.extend(_imports(modules[name], name, modules))
    return sorted(name for name in modules if name.startswith("repro") and name not in reached)


def test_every_repro_module_is_reachable_from_an_entry_point():
    missing = unreachable_modules()
    assert not missing, "imported from no entry point: " + ", ".join(missing)


def test_module_graph_sees_lazy_and_relative_imports(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from . import eager\n")
    source = "def f():\n    from .lazy import thing\n    import os.path\n"
    (package / "eager.py").write_text(source)
    known = {"pkg", "pkg.eager", "pkg.lazy"}
    assert _imports(package / "__init__.py", "pkg", known) == {"pkg", "pkg.eager"}
    assert _imports(package / "eager.py", "pkg.eager", known) == {"pkg.lazy", "os.path"}
