"""Parser for the C stencil subset.

The grammar (roughly):

.. code-block:: text

    program     := statement*
    statement   := for_loop | assignment ';' | declaration ';' | '{' statement* '}'
    for_loop    := 'for' '(' init ';' cond ';' step ')' (statement | '{' statement* '}')
    assignment  := array_access '=' expr
    expr        := unary (binop unary)*   binop: * / % bind tighter than + -
    unary       := ('-' | '+' | '!') unary | postfix

The parser reads the lexer's parallel spelling and kind lists
(:class:`repro.frontend.clexer.TokenStream`) with no object per token; a
spelling has one kind, so most tests look at the spelling alone, and a
:class:`repro.frontend.clexer.Token` with its line and column is built only
for a :class:`ParseError`.  Statements are parsed by recursive descent.
Binary expressions are parsed by one precedence loop over an operand and an
operator stack, all operators left-associative, so a chain of any length
costs no recursion depth.

The tree is a pure function of the spellings, so one parse shares what it
would otherwise build again: one node per literal or name spelling, and one
node per subscript spelling.  At a subscript's ``[`` the next ``]`` is found
with ``values.index``; when an earlier subscript held the same spellings
between its brackets and parsed to exactly that ``]``, its node is reused
without reparsing.  A stencil's hundreds of reads spell a few dozen
subscripts.  The memos belong to one :class:`Parser`, that is, to one
:func:`parse_program` call.

Only canonical unit-stride ascending loops are accepted
(``for (i = L; i < U; i++)`` or ``<=``), because those are the only loops the
AN5D execution model can stream.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.frontend import c_ast
from repro.frontend.clexer import Token, TokenStream, lex


class ParseError(ValueError):
    """Raised when the input is not in the supported C subset."""

    def __init__(self, message: str, token: Token | None = None) -> None:
        if token is not None:
            message = f"{message} at line {token.line}, column {token.column} (near {token.value!r})"
        super().__init__(message)
        self.token = token


#: Binding strength of the binary operators the expression loop folds.
_BINARY_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}
_UNARY_OPERATORS = {"-", "+", "!"}
_DECLARED_TYPES = {"float", "double", "int"}


class Parser:
    """Parses a :class:`TokenStream` into a :class:`repro.frontend.c_ast.Program`."""

    def __init__(self, stream: TokenStream) -> None:
        self.stream = stream
        self.values = stream.values
        self.kinds = stream.kinds
        self.index = 0
        # Literals and names are immutable leaves, so one node per spelling
        # is shared by every occurrence; subscripts likewise, keyed by the
        # spellings between their brackets.
        self._leaves: Dict[str, c_ast.CExpr] = {}
        self._subscripts: Dict[Tuple[str, ...], c_ast.CExpr] = {}

    # -- token helpers -----------------------------------------------------
    def _error(self, message: str, index: int) -> ParseError:
        return ParseError(message, self.stream.token(index))

    def _accept(self, value: str) -> bool:
        if self.values[self.index] == value:
            self.index += 1
            return True
        return False

    def _expect(self, value: str) -> None:
        if self.values[self.index] != value:
            raise self._error(f"expected {value!r}", self.index)
        self.index += 1

    def _expect_ident(self) -> str:
        index = self.index
        if self.kinds[index] != "ident":
            raise self._error("expected 'ident'", index)
        self.index = index + 1
        return self.values[index]

    # -- grammar -----------------------------------------------------------
    def parse_program(self) -> c_ast.Program:
        statements: List[c_ast.Statement] = []
        while self.kinds[self.index] != "eof":
            statements.append(self.parse_statement())
        return c_ast.Program(tuple(statements))

    def parse_statement(self) -> c_ast.Statement:
        value = self.values[self.index]
        if value == "for":
            return self.parse_for()
        if value in _DECLARED_TYPES:
            return self.parse_declaration()
        if value == "{":
            # A bare block is flattened into its single statement when
            # possible; otherwise it is not representable at top level.
            raise self._error("unexpected bare block", self.index)
        return self.parse_assignment_statement()

    def parse_declaration(self) -> c_ast.Declaration:
        dtype = self.values[self.index]
        self.index += 1
        name = self._expect_ident()
        value = self.parse_expression() if self._accept("=") else None
        self._expect(";")
        return c_ast.Declaration(dtype, name, value)

    def parse_for(self) -> c_ast.ForLoop:
        self._expect("for")
        self._expect("(")
        # init: optionally typed, "var = expr"
        self._accept("int")
        var = self._expect_ident()
        self._expect("=")
        lower = self.parse_expression()
        self._expect(";")
        # condition: "var < expr" or "var <= expr"
        if self._expect_ident() != var:
            raise self._error("loop condition must test the loop variable", self.index - 1)
        if self._accept("<="):
            inclusive = True
        elif self._accept("<"):
            inclusive = False
        else:
            raise self._error("loop condition must use < or <=", self.index)
        upper = self.parse_expression()
        self._expect(";")
        # step: "var++" or "var += 1" or "++var"
        self._parse_unit_step(var)
        self._expect(")")
        body = self.parse_loop_body()
        return c_ast.ForLoop(var, lower, upper, inclusive, tuple(body))

    def _parse_unit_step(self, var: str) -> None:
        prefix = self._accept("++")
        if self._expect_ident() != var:
            raise self._error("loop step must increment the loop variable", self.index - 1)
        if prefix or self._accept("++"):
            return
        if self._accept("+="):
            step = self.parse_expression()
            if not (isinstance(step, c_ast.NumberLiteral) and step.value == 1):
                raise self._error("only unit-stride loops are supported", self.index)
            return
        raise self._error("unsupported loop step", self.index)

    def parse_loop_body(self) -> List[c_ast.Statement]:
        if self._accept("{"):
            body: List[c_ast.Statement] = []
            while self.values[self.index] != "}":
                if self.kinds[self.index] == "eof":
                    raise self._error("unterminated block", self.index)
                body.append(self.parse_statement())
            self.index += 1
            return body
        return [self.parse_statement()]

    def parse_assignment_statement(self) -> c_ast.Assignment:
        target = self.parse_postfix()
        if not isinstance(target, c_ast.ArrayAccess):
            raise self._error("assignment target must be an array access", self.index)
        op = self.values[self.index]
        if op != "=" and op != "+=":
            raise self._error("expected assignment operator", self.index)
        self.index += 1
        value = self.parse_expression()
        self._expect(";")
        return c_ast.Assignment(target, value, op)

    # -- expressions ---------------------------------------------------------
    def parse_expression(self) -> c_ast.CExpr:
        """Fold ``+ - * / %`` left-associatively by precedence, in one loop
        over an operand stack and an operator stack."""
        values = self.values
        operands = [self.parse_unary()]
        operators: List[tuple[int, str]] = []
        while True:
            op = values[self.index]
            precedence = _BINARY_PRECEDENCE.get(op)
            if precedence is None:
                break
            while operators and operators[-1][0] >= precedence:
                rhs = operands.pop()
                operands[-1] = c_ast.BinaryExpr(operators.pop()[1], operands[-1], rhs)
            operators.append((precedence, op))
            self.index += 1
            operands.append(self.parse_unary())
        while operators:
            rhs = operands.pop()
            operands[-1] = c_ast.BinaryExpr(operators.pop()[1], operands[-1], rhs)
        return operands[0]

    def parse_unary(self) -> c_ast.CExpr:
        op = self.values[self.index]
        if op in _UNARY_OPERATORS:
            self.index += 1
            operand = self.parse_unary()
            if op == "+":
                return operand
            return c_ast.UnaryExpr(op, operand)
        return self.parse_postfix()

    def parse_postfix(self) -> c_ast.CExpr:
        expr = self.parse_primary()
        if self.values[self.index] != "[":
            return expr
        if not isinstance(expr, c_ast.Identifier):
            raise self._error("only simple arrays can be subscripted", self.index)
        indices: List[c_ast.CExpr] = []
        while self.values[self.index] == "[":
            indices.append(self._parse_subscript())
        return c_ast.ArrayAccess(expr.name, tuple(indices))

    def _parse_subscript(self) -> c_ast.CExpr:
        """``[ expr ]`` from the current ``[``, reusing the node of an earlier
        subscript with the same spellings between its brackets."""
        values = self.values
        self.index = start = self.index + 1
        try:
            key: Tuple[str, ...] | None = tuple(values[start : values.index("]", start)])
        except ValueError:  # no ']' left: the parse below says where it is missing
            key = None
        else:
            node = self._subscripts.get(key)
            if node is not None:
                self.index = start + len(key) + 1
                return node
        node = self.parse_expression()
        # Only a parse that used exactly the key's spellings is stored.  Such
        # a key holds no '[': a nested subscript would have consumed its own
        # ']' before the first one the key ends at.
        if key is not None and self.index == start + len(key):
            self._subscripts[key] = node
        self._expect("]")
        return node

    def parse_primary(self) -> c_ast.CExpr:
        index = self.index
        kind, value = self.kinds[index], self.values[index]
        if kind == "int" or kind == "float":
            self.index = index + 1
            literal = self._leaves.get(value)
            if literal is None:
                literal = self._leaves[value] = c_ast.NumberLiteral.from_text(value, kind == "float")
            return literal
        if kind == "ident":
            self.index = index + 1
            if self._accept("("):
                args: List[c_ast.CExpr] = []
                if self.values[self.index] != ")":
                    args.append(self.parse_expression())
                    while self._accept(","):
                        args.append(self.parse_expression())
                self._expect(")")
                return c_ast.CallExpr(value, tuple(args))
            name = self._leaves.get(value)
            if name is None:
                name = self._leaves[value] = c_ast.Identifier(value)
            return name
        if value == "(":
            self.index = index + 1
            expr = self.parse_expression()
            self._expect(")")
            return expr
        raise self._error("unexpected token", index)


def parse_program(source: str) -> c_ast.Program:
    """Tokenize and parse ``source`` into a program AST."""
    return Parser(lex(source)).parse_program()
