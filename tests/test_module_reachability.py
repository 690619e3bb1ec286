"""Every ``repro`` module and name must be reachable from real code.

The entry points are the ``an5d`` CLI, ``repro.api``, the ``repro`` package
itself and every script under ``benchmarks/``, ``perfbench/`` and
``examples/``.  The module check walks the import graph of those files
(top-level, function-local and relative imports alike) and fails, naming the
module, if some ``repro.*`` module is reached only from ``tests/``.

The name check does the same one level down: every top-level function and
class of ``src/repro``, and every method, must be referenced from non-test
code outside its own definition.  A name found only in ``tests/`` is either
missing a caller or should be deleted.  The ``python - <<'EOF'`` scripts of
the CI workflows count as non-test code, and every ``repro`` name they import
must exist.
"""

from __future__ import annotations

import ast
import importlib
import re
import textwrap
from collections import defaultdict, deque
from pathlib import Path
from typing import Container, Dict, Iterable, Iterator, List, Set, Tuple

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


# -- names -----------------------------------------------------------------------

#: Public top-level functions of this module are the documented library surface.
API_MODULE = "repro.api"

#: Names with no caller in the code, each with the reason it stays.  Only two
#: kinds belong here: methods a framework calls, and test oracles (code a test
#: compares another implementation against).
ALLOWED: Dict[str, str] = {
    "repro.service.app._CampaignRequestHandler._handle": (
        "http.server calls it through the do_GET/do_POST/do_DELETE/do_PUT aliases"
    ),
    "repro.service.app._CampaignRequestHandler.log_message": (
        "BaseHTTPRequestHandler calls it to log every request"
    ),
    "repro.core.associative.decompose_partial_sums": (
        "test oracle: its per-sub-plane partial sums must re-add to the direct update for"
        " every stencil classify.is_associative accepts, the premise of the one-plane model"
    ),
    "repro.ir.expr.evaluate": (
        "test oracle: the scalar value the partial-sum and sum_terms rewrites are checked against"
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: The chain of qualified definitions enclosing a reference, module first.
Scope = Tuple[str, ...]


def _is_dunder(name: str) -> bool:
    """Python calls ``__dunder__`` methods itself."""
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module, module: str) -> Iterator[Tuple[str, ast.AST, bool]]:
    """``(qualified name, node, is_method)`` of every checked definition."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item, True


class _References(ast.NodeVisitor):
    """Every name a file uses, with the definitions each use sits inside.

    Bare names (``f()``) can reach top-level functions and classes only;
    attributes (``obj.f``) and identifier strings (``getattr(obj, "f")``,
    dispatch tables) can reach methods too.  ``__all__`` entries do not
    count: a re-export is not a caller.
    """

    def __init__(self) -> None:
        self.bare: Dict[str, Set[Scope]] = defaultdict(set)
        self.dotted: Dict[str, Set[Scope]] = defaultdict(set)
        self._scope: Scope = ()

    def scan(self, source: str, module: str, filename: str) -> None:
        self._scope = (module,)
        self.visit(ast.parse(source, filename=filename))

    def _enter(self, node: ast.AST) -> None:
        outer = self._scope
        self._scope = (*outer, f"{outer[-1]}.{node.name}")
        self.generic_visit(node)
        self._scope = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Name(self, node: ast.Name) -> None:
        self.bare[node.id].add(self._scope)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.dotted[node.attr].add(self._scope)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.dotted[node.value].add(self._scope)

    def visit_Assign(self, node: ast.Assign) -> None:
        targets = [target for target in node.targets if isinstance(target, ast.Name)]
        if not any(target.id == "__all__" for target in targets):
            self.generic_visit(node)


def workflow_scripts(repo: Path = REPO) -> Iterator[Tuple[str, str]]:
    """``(file:line, source)`` of every ``python - <<'TAG'`` block in the CI workflows."""
    for path in sorted((repo / ".github" / "workflows").glob("*.yml")):
        lines = path.read_text().splitlines()
        for start, line in enumerate(lines):
            opener = re.search(r"python - <<'(\w+)'", line)
            if opener:
                end = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == opener[1])
                body = textwrap.dedent("\n".join(lines[start + 1 : end]))
                yield f"{path.relative_to(repo)}:{start + 2}", body


def _non_test_sources(repo: Path, script_dirs: Iterable[str]) -> Iterator[Tuple[str, str, str]]:
    """``(source, module, filename)`` of every non-test Python file and CI script."""
    for path in sorted((repo / "src").rglob("*.py")):
        yield path.read_text(), _module_name(path, repo / "src"), str(path)
    for directory in script_dirs:
        for path in sorted((repo / directory).rglob("*.py")):
            if not path.name.startswith(("test_", "conftest")):
                yield path.read_text(), _module_name(path, repo), str(path)
    for label, source in workflow_scripts(repo):
        yield source, label, label


def unreferenced_names(repo: Path = REPO, script_dirs: Iterable[str] = SCRIPT_DIRS) -> List[str]:
    """``path:line qualified.name`` of every definition no non-test code uses."""
    references = _References()
    for source, module, filename in _non_test_sources(repo, script_dirs):
        references.scan(source, module, filename)
    missing = []
    for path in sorted((repo / "src").rglob("*.py")):
        module = _module_name(path, repo / "src")
        for name, node, is_method in _definitions(ast.parse(path.read_text()), module):
            public = isinstance(node, _FUNCTIONS) and not node.name.startswith("_")
            if module == API_MODULE and public and not is_method:
                continue
            scopes = references.dotted[node.name]
            if not is_method:
                scopes = scopes | references.bare[node.name]
            if not any(name not in scope for scope in scopes):
                missing.append(f"{path.relative_to(repo)}:{node.lineno} {name}")
    return missing


def test_every_repro_name_has_a_non_test_caller():
    flagged = [entry for entry in unreferenced_names() if entry.split()[-1] not in ALLOWED]
    assert not flagged, "only tests reach (add a caller or delete):\n" + "\n".join(flagged)


def test_workflow_scripts_import_only_live_names():
    """A CI script importing a deleted name fails here, not in a CI job."""
    dead = []
    for label, source in workflow_scripts():
        for node in ast.walk(ast.parse(source, filename=label)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        try:
                            importlib.import_module(f"{node.module}.{alias.name}")
                        except ImportError:
                            dead.append(f"{label} {node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        try:
                            importlib.import_module(alias.name)
                        except ImportError:
                            dead.append(f"{label} {alias.name}")
    assert not dead, "CI scripts import names that do not exist:\n" + "\n".join(dead)


def test_allowlist_entries_are_live_and_give_a_reason():
    stale = set(ALLOWED) - {entry.split()[-1] for entry in unreferenced_names()}
    assert not stale, "allowlisted names that now have a caller or are gone: " + ", ".join(stale)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_name_check_sees_attributes_strings_and_self_reference(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import unused, used\n__all__ = ['unused', 'used', 'Box']\n"
    )
    (package / "mod.py").write_text(
        "def used():\n    return Box().shown + getattr(Box(), 'dispatched')()\n"
        "def unused():\n    return unused()\n"
        "class Box:\n"
        "    shown = 1\n"
        "    def dispatched(self):\n        return 1\n"
        "    def ci_only(self):\n        return 1\n"
        "    def hidden(self):\n        return self.hidden()\n"
        "    def __len__(self):\n        return 0\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("from pkg.mod import used\nused()\n")
    (tmp_path / "scripts" / "test_run.py").write_text("from pkg.mod import unused\nunused()\n")
    (tmp_path / ".github" / "workflows").mkdir(parents=True)
    (tmp_path / ".github" / "workflows" / "ci.yml").write_text(
        "      - run: |\n          python - <<'EOF'\n          from pkg.mod import Box\n"
        "          Box().ci_only()\n          EOF\n"
    )
    found = [entry.split()[-1] for entry in unreferenced_names(tmp_path, ("scripts",))]
    assert found == ["pkg.mod.unused", "pkg.mod.Box.hidden"]
