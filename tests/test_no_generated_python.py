"""No ``repro`` module runs Python source it generates.

Every kernel engine runs the one lowering of a stencil's expression tree
(``repro.ir.compile.Lowering``): the NumPy engine calls ufuncs from its
statements and the native engine prints them as C.  Generated Python would
be a second lowering to keep bit-identical with the first, so a call of the
builtin ``exec`` or ``eval``, or of ``compile`` in ``"exec"`` mode (or a mode
this check cannot read), anywhere under ``src/repro`` fails here, naming
its file and line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _builtin_name(call: ast.Call) -> str | None:
    """The name ``call`` calls when it is a bare or ``builtins.`` name."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "builtins":
            return func.attr
    return None


def generated_code_calls(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, name)`` of each call in ``source`` that runs generated code."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _builtin_name(node)
        if name in ("exec", "eval"):
            yield node.lineno, name
        elif name == "compile":
            mode = node.args[2] if len(node.args) > 2 else next(
                (keyword.value for keyword in node.keywords if keyword.arg == "mode"), None
            )
            if not (isinstance(mode, ast.Constant) and mode.value in ("eval", "single")):
                yield node.lineno, name


def test_no_repro_module_runs_generated_python():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in generated_code_calls(path.read_text())
    ]
    assert found == []


def test_the_check_sees_every_form_of_a_call():
    source = "\n".join(
        [
            "import builtins, re",
            "exec(code)",
            "builtins.eval('1')",
            "compile(text, '<k>', 'exec')",
            "compile(text, '<k>', mode=kind)",
            "compile(text, '<k>', 'eval')",
            "re.compile('a+')",
            "namespace.exec(code)",
        ]
    )
    assert list(generated_code_calls(source)) == [
        (2, "exec"), (3, "eval"), (4, "compile"), (5, "compile"),
    ]
