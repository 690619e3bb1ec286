"""A small structured representation of the generated CUDA C code.

Full C parsing/printing machinery is unnecessary for the restricted code
shapes AN5D emits; this module provides just enough structure (blocks,
declarations, loops, conditionals, raw statements) for the generators to
build code compositionally and for the emitter to indent it consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


class CudaNode:
    """Base class for generated-code nodes."""


@dataclass
class Raw(CudaNode):
    """A literal line of code (already valid CUDA C)."""

    text: str


@dataclass
class Declare(CudaNode):
    """An initialised variable declaration."""

    ctype: str
    name: str
    init: str

    def render(self) -> str:
        return f"{self.ctype} {self.name} = {self.init};"


@dataclass
class Assign(CudaNode):
    """A simple assignment statement."""

    target: str
    value: str

    def render(self) -> str:
        return f"{self.target} = {self.value};"


@dataclass
class Sync(CudaNode):
    """A ``__syncthreads()`` barrier."""


@dataclass
class Return(CudaNode):
    """A ``return;`` statement."""


@dataclass
class Block(CudaNode):
    """A sequence of statements within braces."""

    statements: List[CudaNode] = field(default_factory=list)

    def add(self, node: CudaNode) -> "Block":
        self.statements.append(node)
        return self

    def extend(self, nodes: Sequence[CudaNode]) -> "Block":
        self.statements.extend(nodes)
        return self


@dataclass
class If(CudaNode):
    """An ``if`` statement."""

    condition: str
    then: Block


@dataclass
class For(CudaNode):
    """A ``for`` loop with free-form header components."""

    init: str
    condition: str
    step: str
    body: Block = field(default_factory=Block)


@dataclass
class FuncDef(CudaNode):
    """A function definition (kernel or host)."""

    return_type: str
    name: str
    params: Tuple[str, ...]
    body: Block
    qualifiers: str = ""

    @property
    def signature(self) -> str:
        prefix = f"{self.qualifiers} " if self.qualifiers else ""
        return f"{prefix}{self.return_type} {self.name}({', '.join(self.params)})"
