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
the CI workflows count as non-test code.  Every ``repro`` name they or any
file under the script directories import must exist, tests there included:
CI runs few of those files, so a stale import would fail nowhere else.

The option check does the same for values: every defaulted parameter and
dataclass constructor field in ``src/repro`` must be passed somewhere by that
non-test code.  An option only tests set is a constant in disguise.  Run as a
script, this file prints the option budget (library options and CLI flags).
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
    "repro.stencils.generators.anisotropic_star_stencil": (
        "test oracle: the IR the frontend must lower an astar source to, bit for bit"
    ),
    "repro.stencils.generators.variable_star_stencil": (
        "test oracle: the IR the frontend must lower a vstar source to, bit for bit"
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


def _script_sources() -> Iterator[Tuple[str, str]]:
    """``(label, source)`` of every CI workflow script and every file under
    the script directories."""
    yield from workflow_scripts()
    for directory in SCRIPT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            yield str(path.relative_to(REPO)), path.read_text()


def test_workflow_scripts_import_only_live_names():
    """A script importing a deleted name fails here, not in a CI job or in
    the next run of a benchmark no CI job runs."""
    dead = []
    for label, source in _script_sources():
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
    assert not dead, "scripts import names that do not exist:\n" + "\n".join(dead)


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


# -- options ---------------------------------------------------------------------

#: Defaulted parameters and dataclass fields no non-test code sets, each with
#: the reason it stays.  Only two kinds belong here: test seams (an injected
#: clock, rng, client, metrics registry or sampler, or an interval a test pins
#: for determinism) and deployment settings (paths, addresses, ports).
#: Parameters of public ``repro.api`` functions are roots and need no entry.
ALLOWED_OPTIONS: Dict[str, str] = {
    "repro.campaign.store.ResultStore.enqueue_submission(now)": (
        "test seam: tests stamp submissions at fixed times to pin queue order"
    ),
    "repro.campaign.store.ResultStore.record_telemetry(now)": (
        "test seam: tests stamp snapshots at fixed times to pin history order and deltas"
    ),
    "repro.cluster.client.backoff_delay(rng)": (
        "test seam: a seeded rng makes the backoff jitter deterministic"
    ),
    "repro.cluster.coordinator.ClusterCoordinator.__init__(client)": (
        "test seam: tests inject a stub client that records shard forwards"
    ),
    "repro.cluster.registry.InstanceRegistry.__init__(clock)": (
        "test seam: tests drive heartbeat liveness with a fake clock"
    ),
    "repro.cluster.remote.RemoteStore.__init__(flush_interval)": (
        "interval a test pins: test_cluster_faults waits 10 s between flushes so no"
        " background flush races its journal assertions"
    ),
    "repro.obs.profile.SamplingProfiler.__init__(hz)": (
        "interval a test pins: tests sample at 200-250 Hz so sub-second windows collect stacks"
    ),
    "repro.obs.profile.profile_for(profiler)": (
        "test seam: tests pass a private sampler so windows armed elsewhere in the"
        " process cannot add to the counts"
    ),
}

#: One option: ``(label, lineno, parameter, positional index or None, callees)``.
Option = Tuple[str, int, str, "int | None", Set[str]]


def _decorator_names(node: ast.AST) -> Set[str]:
    names = set()
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", ""))
    return names


def _is_init_field(value: "ast.expr | None") -> bool:
    """False for ``field(init=False)``: run state, not a constructor argument."""
    if not (isinstance(value, ast.Call) and _callee(value.func) == "field"):
        return True
    return not any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def _callee(func: ast.expr) -> "str | None":
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _options(tree: ast.Module, module: str, heirs: Dict[str, Set[str]]) -> Iterator[Option]:
    """Every defaulted parameter of a top-level function or method, and every
    defaulted constructor field of a dataclass.

    ``heirs`` maps a class name to itself plus the subclasses that inherit
    its ``__init__``: constructing any of them sets its options.
    """

    def parameters(function, label: str, callees: Set[str], bound: bool) -> Iterator[Option]:
        args = function.args
        positional = [*args.posonlyargs, *args.args][1 if bound else 0 :]
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield f"{label}({arg.arg})", function.lineno, arg.arg, index, callees
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{label}({arg.arg})", function.lineno, arg.arg, None, callees

    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield from parameters(node, f"{module}.{node.name}", {node.name}, False)
        if not isinstance(node, ast.ClassDef):
            continue
        if "dataclass" in _decorator_names(node):
            fields = [
                item
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)
                and _is_init_field(item.value)
            ]
            for index, item in enumerate(fields):
                if item.value is not None:
                    label = f"{module}.{node.name}.{item.target.id}"
                    yield label, item.lineno, item.target.id, index, heirs[node.name]
        for item in node.body:
            if not isinstance(item, _FUNCTIONS) or (_is_dunder(item.name) and item.name != "__init__"):
                continue
            callees = heirs[node.name] if item.name == "__init__" else {item.name}
            bound = "staticmethod" not in _decorator_names(item)
            yield from parameters(item, f"{module}.{node.name}.{item.name}", callees, bound)


class _Calls(ast.NodeVisitor):
    """Every call in non-test code, by the name of what it calls.

    A ``cls(...)`` call inside a classmethod calls its class, and
    ``super().__init__(...)`` calls the bases.  A call through a dispatch
    table (a dict literal of functions: ``TABLE[key](...)``,
    ``TABLE.get(key)(...)``) or through a local alias of one or more
    callables (``f = TABLE[key]``, ``f = a.g if c else a.h``) calls every
    function it can reach.  A function handed to a runner together with
    ``args=``/``kwargs=`` (``benchmark.pedantic(f, args=..., kwargs=...)``,
    ``Thread(target=f, kwargs=...)``) is called with them.
    """

    def __init__(self, tables: Dict[str, Set[str]]) -> None:
        self.tables = tables
        self.by_callee: Dict[str, List[ast.Call]] = defaultdict(list)
        self._classes: List[ast.ClassDef] = []
        self._aliases: List[Dict[str, Set[str]]] = [{}]
        self._in_classmethod: List[bool] = [False]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node: ast.AST) -> None:
        self._aliases.append({})
        self._in_classmethod.append("classmethod" in _decorator_names(node))
        self.generic_visit(node)
        self._in_classmethod.pop()
        self._aliases.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _targets(self, expr: ast.expr) -> Set[str]:
        """The callables ``expr`` can evaluate to (empty when unknown)."""
        if isinstance(expr, ast.IfExp):
            return self._targets(expr.body) | self._targets(expr.orelse)
        if isinstance(expr, ast.Subscript):
            return self.tables.get(_callee(expr.value) or "", set())
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr == "get":
                return self.tables.get(_callee(expr.func.value) or "", set())
            return set()
        name = _callee(expr)
        if name is None:
            return set()
        if isinstance(expr, ast.Name):
            if name == "cls" and self._in_classmethod[-1] and self._classes:
                return {self._classes[-1].name}
            if name in self._aliases[-1]:
                return self._aliases[-1][name]
        return {name}

    def scan(self, tree: ast.Module) -> None:
        self._aliases = [{}]
        self.visit(tree)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            targets = self._targets(node.value)
            if targets:
                self._aliases[-1][node.targets[0].id] = targets
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _callee(func.value.func) == "super"
            and self._classes
        ):
            callees = {_callee(base) or "" for base in self._classes[-1].bases}
        else:
            callees = self._targets(func)
        for name in callees:
            self.by_callee[name].append(node)
        self._runner_call(node)
        self.generic_visit(node)

    def _runner_call(self, node: ast.Call) -> None:
        """Record ``runner(f, args=(...), kwargs={...})`` as a call of ``f``."""
        passed = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if not {"args", "kwargs"} & set(passed):
            return
        function = passed.get("target", node.args[0] if node.args else None)
        if function is None:
            return
        args = passed.get("args")
        kwargs = passed.get("kwargs")
        call = ast.Call(
            func=function,
            args=list(args.elts) if isinstance(args, ast.Tuple) else [ast.Starred(args)] if args else [],
            keywords=[
                ast.keyword(arg=key.value if isinstance(key, ast.Constant) else None, value=value)
                for key, value in zip(kwargs.keys, kwargs.values)
            ]
            if isinstance(kwargs, ast.Dict)
            else [ast.keyword(arg=None, value=kwargs)] if kwargs else [],
        )
        for name in self._targets(function):
            self.by_callee[name].append(call)


def _sets(call: ast.Call, parameter: str, index: "int | None") -> bool:
    """Whether ``call`` passes ``parameter``: by keyword, through a ``**``
    splat, or positionally at ``index`` or later (a ``*`` splat reaches
    every position from its own on)."""
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    if index is None:
        return False
    return any(
        position >= index or isinstance(arg, ast.Starred)
        for position, arg in enumerate(call.args)
    )


def _dispatch_tables(trees: Iterable[ast.Module]) -> Dict[str, Set[str]]:
    """``NAME = {key: function, ...}`` literals: name -> the functions."""
    tables: Dict[str, Set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Dict)
            ):
                functions = {_callee(value) for value in node.value.values} - {None}
                if functions:
                    tables[node.targets[0].id] = functions  # type: ignore[assignment]
    return tables


def _heirs(trees: Iterable[ast.Module]) -> Dict[str, Set[str]]:
    """Class name -> itself plus every subclass that inherits its ``__init__``."""
    bases: Dict[str, List[str]] = {}
    own_init: Set[str] = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_callee(base) or "" for base in node.bases]
                if any(isinstance(item, _FUNCTIONS) and item.name == "__init__" for item in node.body):
                    own_init.add(node.name)
    heirs: Dict[str, Set[str]] = {name: {name} for name in bases}
    changed = True
    while changed:
        changed = False
        for name, parents in bases.items():
            if name in own_init:
                continue
            for parent in parents:
                if parent in heirs and not heirs[name] <= heirs[parent]:
                    heirs[parent] |= heirs[name]
                    changed = True
    return heirs


def library_options(repo: Path = REPO) -> List[Tuple[str, str]]:
    """``(path:line, label)`` of every option in ``src/repro``."""
    return [(where, label) for where, label, _ in _scan_options(repo, SCRIPT_DIRS)]


def _scan_options(repo: Path, script_dirs: Iterable[str]) -> List[Tuple[str, str, bool]]:
    """``(path:line, label, set by non-test code)`` of every option."""
    sources = [
        ast.parse(source, filename=filename)
        for source, _, filename in _non_test_sources(repo, script_dirs)
    ]
    src_files = sorted((repo / "src").rglob("*.py"))
    src_trees = {path: ast.parse(path.read_text()) for path in src_files}
    heirs = _heirs(src_trees.values())
    calls = _Calls(_dispatch_tables(sources))
    for tree in sources:
        calls.scan(tree)
    found = []
    for path, tree in src_trees.items():
        module = _module_name(path, repo / "src")
        for label, line, parameter, index, callees in _options(tree, module, heirs):
            function = label[len(module) + 1 :].split("(")[0]
            root = module == API_MODULE and "." not in function and not function.startswith("_")
            is_set = root or any(
                _sets(call, parameter, index) for name in callees for call in calls.by_callee[name]
            )
            found.append((f"{path.relative_to(repo)}:{line}", label, is_set))
    return found


def unset_options(repo: Path = REPO, script_dirs: Iterable[str] = SCRIPT_DIRS) -> List[str]:
    """``path:line label`` of every option no non-test code sets."""
    return [f"{where} {label}" for where, label, is_set in _scan_options(repo, script_dirs) if not is_set]


def allowlist_problems(allowed: Dict[str, str], unset: List[str]) -> List[str]:
    """Allowlist entries that give no reason, or name an option that is now
    set or gone."""
    live = {entry.split()[-1] for entry in unset}
    return [f"stale (set or gone): {name}" for name in sorted(set(allowed) - live)] + [
        f"no reason: {name}" for name, reason in sorted(allowed.items()) if not reason.strip()
    ]


def cli_flags() -> List[str]:
    """``parser: --flag`` of every option of every ``an5d`` parser."""
    import argparse

    from repro.cli import build_parser

    flags = []
    parsers = [("an5d", build_parser())]
    while parsers:
        path, parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend((f"{path} {name}", child) for name, child in action.choices.items())
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                flags.append(f"{path}: {action.option_strings[-1]}")
    return sorted(flags)


def test_every_repro_option_has_a_non_test_setter():
    flagged = [entry for entry in unset_options() if entry.split()[-1] not in ALLOWED_OPTIONS]
    assert not flagged, "only tests set (pass it somewhere or make it a constant):\n" + "\n".join(
        flagged
    )


def test_option_allowlist_entries_are_live_and_give_a_reason():
    problems = allowlist_problems(ALLOWED_OPTIONS, unset_options())
    assert not problems, "\n".join(problems)


def test_option_check_sees_keywords_positions_splats_and_dispatch_tables(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def unset(x=1):\n    return x\n"
        "def by_keyword(x=1):\n    return x\n"
        "def by_position(a, x=1):\n    return x\n"
        "def by_splat(*, x=1):\n    return x\n"
        "def by_table(x=1):\n    return x\n"
        "def only_in_tests(x=1):\n    return x\n"
        "def by_runner(x=1):\n    return x\n"
        "TABLE = {'t': by_table}\n"
        "class Box:\n"
        "    def __init__(self, size=1):\n        self.size = size\n"
        "    @classmethod\n    def make(cls):\n        return cls(2)\n"
        "    def method(self, flag=False):\n        return flag\n"
        "@dataclass\n"
        "class Record:\n"
        "    name: str\n"
        "    state: str = field(default='new', init=False)\n"
        "    note: str = ''\n"
        "    count: int = 0\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from pkg.mod import *\n"
        "by_keyword(x=2)\nby_position(1, 2)\noptions = {'x': 3}\nby_splat(**options)\n"
        "def report(name):\n    make = TABLE[name]\n    return make(4)\n"
        "Box.make().method(True)\nRecord('a', count=3)\n"
        "benchmark.pedantic(by_runner, args=(), kwargs={'x': 6})\n"
    )
    (tmp_path / "scripts" / "test_run.py").write_text("from pkg.mod import only_in_tests\nonly_in_tests(x=5)\n")
    unset = unset_options(tmp_path, ("scripts",))
    assert [entry.split()[-1] for entry in unset] == [
        "pkg.mod.unset(x)",
        "pkg.mod.only_in_tests(x)",
        "pkg.mod.Record.note",
    ]
    assert allowlist_problems({"pkg.mod.unset(x)": "test seam: injected clock"}, unset) == []
    assert allowlist_problems(
        {"pkg.mod.only_in_tests(x)": " ", "pkg.mod.by_keyword(x)": "set by run.py"}, unset
    ) == ["stale (set or gone): pkg.mod.by_keyword(x)", "no reason: pkg.mod.only_in_tests(x)"]


if __name__ == "__main__":
    # CI's "Line budget" step writes the option budget to its summary.
    print(
        f"Settable options: {len(library_options())} defaulted parameters and dataclass fields"
        f" in src/repro, {len(cli_flags())} CLI flags"
    )
