"""Tests for the C-subset parser."""

import pytest

from repro.frontend import c_ast
from repro.frontend.clexer import lex
from repro.frontend.cparser import ParseError, parse_program
from repro.stencils.library import get_benchmark

SIMPLE_LOOP = """
for (t = 0; t < I_T; t++)
  for (i = 1; i <= I_S1; i++)
    A[(t+1)%2][i] = 0.5f * A[t%2][i-1] + 0.5f * A[t%2][i+1];
"""


def test_parse_simple_nest_structure():
    program = parse_program(SIMPLE_LOOP)
    assert len(program.loops) == 1
    nest = c_ast.nest_loops(program.loops[0])
    assert [loop.var for loop in nest] == ["t", "i"]


def test_loop_bounds_and_inclusivity():
    program = parse_program(SIMPLE_LOOP)
    time_loop, space_loop = c_ast.nest_loops(program.loops[0])
    assert not time_loop.inclusive
    assert space_loop.inclusive
    assert isinstance(space_loop.lower, c_ast.NumberLiteral)


def test_innermost_body_is_single_assignment():
    program = parse_program(SIMPLE_LOOP)
    body = c_ast.innermost_body(program.loops[0])
    assert len(body) == 1
    assert isinstance(body[0], c_ast.Assignment)


def test_assignment_target_is_array_access():
    program = parse_program(SIMPLE_LOOP)
    assignment = c_ast.innermost_body(program.loops[0])[0]
    assert assignment.target.array == "A"
    assert len(assignment.target.indices) == 2


def test_braced_loop_bodies():
    source = """
    for (t = 0; t < T; t++) {
      for (i = 1; i <= N; i++) {
        A[(t+1)%2][i] = A[t%2][i];
      }
    }
    """
    program = parse_program(source)
    assert len(c_ast.nest_loops(program.loops[0])) == 2


def test_operator_precedence():
    source = "for (t = 0; t < T; t++) for (i = 1; i <= N; i++) A[(t+1)%2][i] = 1.0f + 2.0f * A[t%2][i];"
    assignment = c_ast.innermost_body(parse_program(source).loops[0])[0]
    assert isinstance(assignment.value, c_ast.BinaryExpr)
    assert assignment.value.op == "+"
    assert isinstance(assignment.value.rhs, c_ast.BinaryExpr)
    assert assignment.value.rhs.op == "*"


def test_parenthesised_expression():
    source = "for (t = 0; t < T; t++) for (i = 1; i <= N; i++) A[(t+1)%2][i] = (1.0f + 2.0f) * A[t%2][i];"
    assignment = c_ast.innermost_body(parse_program(source).loops[0])[0]
    assert assignment.value.op == "*"


def test_unary_minus_and_plus():
    source = "for (t = 0; t < T; t++) for (i = 1; i <= N; i++) A[(t+1)%2][i] = -A[t%2][i] + +2.0f;"
    assignment = c_ast.innermost_body(parse_program(source).loops[0])[0]
    assert isinstance(assignment.value.lhs, c_ast.UnaryExpr)
    assert isinstance(assignment.value.rhs, c_ast.NumberLiteral)


def test_call_expression_parsing():
    source = "for (t = 0; t < T; t++) for (i = 1; i <= N; i++) A[(t+1)%2][i] = sqrtf(A[t%2][i]);"
    assignment = c_ast.innermost_body(parse_program(source).loops[0])[0]
    assert isinstance(assignment.value, c_ast.CallExpr)
    assert assignment.value.name == "sqrtf"


def test_declarations_are_tolerated():
    source = "float alpha = 0.5f;"
    program = parse_program(source)
    assert isinstance(program.statements[0], c_ast.Declaration)


def test_plusplus_prefix_step_supported():
    source = "for (t = 0; t < T; ++t) for (i = 1; i <= N; i++) A[(t+1)%2][i] = A[t%2][i];"
    assert len(parse_program(source).loops) == 1


def test_pluseq_one_step_supported():
    source = "for (t = 0; t < T; t += 1) for (i = 1; i <= N; i++) A[(t+1)%2][i] = A[t%2][i];"
    assert len(parse_program(source).loops) == 1


def test_non_unit_stride_rejected():
    source = "for (t = 0; t < T; t += 2) for (i = 1; i <= N; i++) A[(t+1)%2][i] = A[t%2][i];"
    with pytest.raises(ParseError):
        parse_program(source)


def test_descending_loop_rejected():
    source = "for (t = T; t > 0; t--) A[(t+1)%2][1] = A[t%2][1];"
    with pytest.raises(ParseError):
        parse_program(source)


def test_condition_on_wrong_variable_rejected():
    source = "for (t = 0; x < T; t++) A[(t+1)%2][1] = A[t%2][1];"
    with pytest.raises(ParseError):
        parse_program(source)


def test_assignment_to_scalar_rejected():
    with pytest.raises(ParseError):
        parse_program("x = 1.0f;")


def test_unterminated_block_rejected():
    with pytest.raises(ParseError):
        parse_program("for (t = 0; t < T; t++) { A[(t+1)%2][1] = A[t%2][1];")


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        parse_program("for (t = 0; t < T; t++) A[(t+1)%2][1] = A[t%2][1]")


def test_error_message_contains_position():
    try:
        parse_program("for (t = 0; t < T; t++) A[(t+1)%2][1] = A[t%2][1]")
    except ParseError as error:
        assert "line" in str(error)
    else:  # pragma: no cover
        pytest.fail("expected a ParseError")


# -- the per-parse subscript memo --------------------------------------------------


def _subscripts_in_source_order(program):
    """Every subscript node of every array access, left to right."""
    found = []
    stack = list(reversed(program.statements))
    while stack:
        node = stack.pop()
        if isinstance(node, c_ast.ForLoop):
            stack.extend(reversed(node.body))
        elif isinstance(node, c_ast.Assignment):
            stack += (node.value, node.target)
        elif isinstance(node, c_ast.BinaryExpr):
            stack += (node.rhs, node.lhs)
        elif isinstance(node, c_ast.ArrayAccess):
            found.extend(node.indices)
    return found


def _subscript_spellings(source):
    """The spellings between each ``[`` and the next ``]``, left to right."""
    values = lex(source).values
    return [
        tuple(values[index + 1 : values.index("]", index + 1)])
        for index, value in enumerate(values)
        if value == "["
    ]


def test_box3d4r_holds_one_node_per_distinct_subscript_spelling():
    source = get_benchmark("box3d4r").source
    spellings = _subscript_spellings(source)
    nodes = _subscripts_in_source_order(parse_program(source))
    assert len(nodes) == len(spellings) == 4 * (729 + 1)
    ids_by_spelling = {}
    for spelling, node in zip(spellings, nodes):
        ids_by_spelling.setdefault(spelling, set()).add(id(node))
    # t%2, (t+1)%2, and i, j, k each at offsets -4..4.
    assert len(ids_by_spelling) == 2 + 3 * 9
    assert all(len(ids) == 1 for ids in ids_by_spelling.values())
    assert len({id(node) for node in nodes}) == len(ids_by_spelling)


def test_the_subscript_memo_does_not_outlive_one_parse():
    source = get_benchmark("box3d4r").source
    first, second = parse_program(source), parse_program(source)
    first_ids = {id(node) for node in _subscripts_in_source_order(first)}
    second_ids = {id(node) for node in _subscripts_in_source_order(second)}
    assert len(first_ids) == len(second_ids) == 29
    assert not first_ids & second_ids


def test_a_subscript_spelled_like_a_nested_one_is_parsed_whole():
    source = (
        "for (t = 0; t < T; t++) for (i = 1; i < N; i++)"
        " A[(t+1)%2][i] = A[t%2][B[i]] + A[t%2][B[i]] + A[t%2][B];"
    )
    reads = _subscripts_in_source_order(parse_program(source))[2:]
    nested = c_ast.ArrayAccess("B", (c_ast.Identifier("i"),))
    assert reads[1::2] == [nested, nested, c_ast.Identifier("B")]
    # A key that runs into a nested '[' is never stored: each use is parsed.
    assert reads[1] is not reads[3]


@pytest.mark.parametrize(
    "source,message",
    [
        ("for (t = 0; 1 < T; t++) A[(t+1)%2][1] = A[t%2][1];", "expected 'ident' at line 1, column 13 (near '1')"),
        ("for (t = 0; t < T; 1++) A[(t+1)%2][1] = A[t%2][1];", "expected 'ident' at line 1, column 20 (near '1')"),
        ("float 3;", "expected 'ident' at line 1, column 7 (near '3')"),
    ],
)
def test_a_literal_where_a_name_belongs_is_rejected(source, message):
    with pytest.raises(ParseError) as excinfo:
        parse_program(source)
    assert str(excinfo.value) == message
