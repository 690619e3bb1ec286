"""Parser for the C stencil subset.

The grammar (roughly):

.. code-block:: text

    program     := statement*
    statement   := for_loop | assignment ';' | declaration ';' | '{' statement* '}'
    for_loop    := 'for' '(' init ';' cond ';' step ')' (statement | '{' statement* '}')
    assignment  := array_access '=' expr
    expr        := unary (binop unary)*   binop: * / % bind tighter than + -
    unary       := ('-' | '+' | '!') unary | postfix

Statements are parsed by recursive descent.  Binary expressions are parsed
by one precedence loop over an operand and an operator stack, all operators
left-associative, so a chain of any length costs no recursion depth.

Only canonical unit-stride ascending loops are accepted
(``for (i = L; i < U; i++)`` or ``<=``), because those are the only loops the
AN5D execution model can stream.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.frontend import c_ast
from repro.frontend.clexer import Token, tokenize


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


class Parser:
    """Parses a token stream into a :class:`repro.frontend.c_ast.Program`."""

    def __init__(self, tokens: Sequence[Token]) -> None:
        self.tokens = list(tokens)
        self.index = 0
        self.current = self.tokens[0]
        # Literals and names are immutable leaves, so one node per spelling
        # is shared by every occurrence.
        self._leaves: Dict[str, c_ast.CExpr] = {}

    # -- token helpers -----------------------------------------------------
    def _advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.index += 1
            self.current = self.tokens[self.index]
        return token

    def _check(self, kind: str, value: str | None = None) -> bool:
        token = self.current
        return token.kind == kind and (value is None or token.value == value)

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self.current
        if token.kind != kind or (value is not None and token.value != value):
            expectation = value if value is not None else kind
            raise ParseError(f"expected {expectation!r}", token)
        return self._advance()

    # -- grammar -----------------------------------------------------------
    def parse_program(self) -> c_ast.Program:
        statements: List[c_ast.Statement] = []
        while not self._check("eof"):
            statements.append(self.parse_statement())
        return c_ast.Program(tuple(statements))

    def parse_statement(self) -> c_ast.Statement:
        if self._check("keyword", "for"):
            return self.parse_for()
        if self._check("keyword", "float") or self._check("keyword", "double") or self._check(
            "keyword", "int"
        ):
            return self.parse_declaration()
        if self._check("punct", "{"):
            # A bare block is flattened into its single statement when
            # possible; otherwise it is not representable at top level.
            raise ParseError("unexpected bare block", self.current)
        return self.parse_assignment_statement()

    def parse_declaration(self) -> c_ast.Declaration:
        dtype = self._advance().value
        name = self._expect("ident").value
        value = None
        if self._accept("op", "="):
            value = self.parse_expression()
        self._expect("punct", ";")
        return c_ast.Declaration(dtype, name, value)

    def parse_for(self) -> c_ast.ForLoop:
        self._expect("keyword", "for")
        self._expect("punct", "(")
        # init: optionally typed, "var = expr"
        self._accept("keyword", "int")
        var_token = self._expect("ident")
        self._expect("op", "=")
        lower = self.parse_expression()
        self._expect("punct", ";")
        # condition: "var < expr" or "var <= expr"
        cond_var = self._expect("ident")
        if cond_var.value != var_token.value:
            raise ParseError("loop condition must test the loop variable", cond_var)
        if self._accept("op", "<="):
            inclusive = True
        elif self._accept("op", "<"):
            inclusive = False
        else:
            raise ParseError("loop condition must use < or <=", self.current)
        upper = self.parse_expression()
        self._expect("punct", ";")
        # step: "var++" or "var += 1" or "++var"
        self._parse_unit_step(var_token.value)
        self._expect("punct", ")")
        body = self.parse_loop_body()
        return c_ast.ForLoop(var_token.value, lower, upper, inclusive, tuple(body))

    def _parse_unit_step(self, var: str) -> None:
        if self._accept("op", "++"):
            name = self._expect("ident")
            if name.value != var:
                raise ParseError("loop step must increment the loop variable", name)
            return
        name = self._expect("ident")
        if name.value != var:
            raise ParseError("loop step must increment the loop variable", name)
        if self._accept("op", "++"):
            return
        if self._accept("op", "+="):
            step = self.parse_expression()
            if not (isinstance(step, c_ast.NumberLiteral) and step.value == 1):
                raise ParseError("only unit-stride loops are supported", self.current)
            return
        raise ParseError("unsupported loop step", self.current)

    def parse_loop_body(self) -> List[c_ast.Statement]:
        if self._accept("punct", "{"):
            body: List[c_ast.Statement] = []
            while not self._check("punct", "}"):
                if self._check("eof"):
                    raise ParseError("unterminated block", self.current)
                body.append(self.parse_statement())
            self._expect("punct", "}")
            return body
        return [self.parse_statement()]

    def parse_assignment_statement(self) -> c_ast.Assignment:
        target = self.parse_postfix()
        if not isinstance(target, c_ast.ArrayAccess):
            raise ParseError("assignment target must be an array access", self.current)
        op_token = self.current
        if self._accept("op", "="):
            op = "="
        elif self._accept("op", "+="):
            op = "+="
        else:
            raise ParseError("expected assignment operator", op_token)
        value = self.parse_expression()
        self._expect("punct", ";")
        return c_ast.Assignment(target, value, op)

    # -- expressions ---------------------------------------------------------
    def parse_expression(self) -> c_ast.CExpr:
        """Fold ``+ - * / %`` left-associatively by precedence, in one loop
        over an operand stack and an operator stack."""
        operands = [self.parse_unary()]
        operators: List[tuple[int, str]] = []
        while True:
            token = self.current
            precedence = _BINARY_PRECEDENCE.get(token.value) if token.kind == "op" else None
            if precedence is None:
                break
            while operators and operators[-1][0] >= precedence:
                rhs = operands.pop()
                operands[-1] = c_ast.BinaryExpr(operators.pop()[1], operands[-1], rhs)
            operators.append((precedence, token.value))
            self._advance()
            operands.append(self.parse_unary())
        while operators:
            rhs = operands.pop()
            operands[-1] = c_ast.BinaryExpr(operators.pop()[1], operands[-1], rhs)
        return operands[0]

    def parse_unary(self) -> c_ast.CExpr:
        token = self.current
        if token.kind == "op" and token.value in _UNARY_OPERATORS:
            self._advance()
            operand = self.parse_unary()
            if token.value == "+":
                return operand
            return c_ast.UnaryExpr(token.value, operand)
        return self.parse_postfix()

    def parse_postfix(self) -> c_ast.CExpr:
        expr = self.parse_primary()
        token = self.current
        if token.kind == "punct" and token.value == "[":
            if not isinstance(expr, c_ast.Identifier):
                raise ParseError("only simple arrays can be subscripted", token)
            indices: List[c_ast.CExpr] = []
            while token.kind == "punct" and token.value == "[":
                self._advance()
                indices.append(self.parse_expression())
                self._expect("punct", "]")
                token = self.current
            return c_ast.ArrayAccess(expr.name, tuple(indices))
        return expr

    def parse_primary(self) -> c_ast.CExpr:
        token = self.current
        kind, value = token.kind, token.value
        if kind == "int" or kind == "float":
            self._advance()
            literal = self._leaves.get(value)
            if literal is None:
                literal = self._leaves[value] = c_ast.NumberLiteral.from_text(value, kind == "float")
            return literal
        if kind == "ident":
            self._advance()
            if self._accept("punct", "("):
                args: List[c_ast.CExpr] = []
                if not self._check("punct", ")"):
                    args.append(self.parse_expression())
                    while self._accept("punct", ","):
                        args.append(self.parse_expression())
                self._expect("punct", ")")
                return c_ast.CallExpr(value, tuple(args))
            name = self._leaves.get(value)
            if name is None:
                name = self._leaves[value] = c_ast.Identifier(value)
            return name
        if kind == "punct" and value == "(":
            self._advance()
            expr = self.parse_expression()
            self._expect("punct", ")")
            return expr
        raise ParseError("unexpected token", token)


def parse_program(source: str) -> c_ast.Program:
    """Tokenize and parse ``source`` into a program AST."""
    return Parser(tokenize(source)).parse_program()
