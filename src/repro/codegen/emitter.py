"""Pretty-printer for the CUDA mini-AST."""

from __future__ import annotations

from typing import List

from repro.codegen.cuda_ast import (
    Assign,
    Block,
    CudaNode,
    Declare,
    For,
    FuncDef,
    If,
    Raw,
    Return,
    Sync,
)


class CudaEmitter:
    """Renders CUDA nodes to indented source text."""

    INDENT = "  "

    def emit(self, node: CudaNode, level: int = 0) -> str:
        return "\n".join(self._emit_lines(node, level))

    # -- internals -------------------------------------------------------------
    def _emit_lines(self, node: CudaNode, level: int) -> List[str]:
        pad = self.INDENT * level
        if isinstance(node, Raw):
            return [pad + line for line in node.text.splitlines()] or [pad]
        if isinstance(node, Declare):
            return [pad + node.render()]
        if isinstance(node, Assign):
            return [pad + node.render()]
        if isinstance(node, Sync):
            return [pad + "__syncthreads();"]
        if isinstance(node, Return):
            return [pad + "return;"]
        if isinstance(node, Block):
            lines: List[str] = []
            for statement in node.statements:
                lines.extend(self._emit_lines(statement, level))
            return lines
        if isinstance(node, If):
            lines = [pad + f"if ({node.condition}) {{"]
            lines.extend(self._emit_lines(node.then, level + 1))
            lines.append(pad + "}")
            return lines
        if isinstance(node, For):
            lines = [pad + f"for ({node.init}; {node.condition}; {node.step}) {{"]
            lines.extend(self._emit_lines(node.body, level + 1))
            lines.append(pad + "}")
            return lines
        if isinstance(node, FuncDef):
            lines = [pad + node.signature + " {"]
            lines.extend(self._emit_lines(node.body, level + 1))
            lines.append(pad + "}")
            return lines
        raise TypeError(f"cannot emit node of type {type(node).__name__}")
