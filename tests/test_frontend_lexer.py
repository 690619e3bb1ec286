"""Tests for the C-subset tokenizer."""

import pytest

from test_frontend_golden import tokenize

from repro.frontend.clexer import LexerError


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind != "eof"]


def values(source):
    return [t.value for t in tokenize(source) if t.kind != "eof"]


def test_tokenize_identifiers_and_keywords():
    tokens = tokenize("for (int i = 0; i < n; i++)")
    assert tokens[0].kind == "keyword" and tokens[0].value == "for"
    assert any(t.kind == "ident" and t.value == "n" for t in tokens)


def test_tokenize_ends_with_eof():
    assert tokenize("x")[-1].kind == "eof"


def test_float_literal_with_suffix_keeps_suffix_text():
    token = tokenize("5.1f")[0]
    assert token.kind == "float"
    assert token.value == "5.1f"


def test_integer_literal():
    token = tokenize("118")[0]
    assert token.kind == "int" and token.value == "118"


def test_exponent_literal():
    token = tokenize("1.5e-3")[0]
    assert token.kind == "float" and token.value == "1.5e-3"


def test_malformed_exponent_raises():
    with pytest.raises(LexerError):
        tokenize("1.5e+")


def test_multi_character_operators():
    assert values("a <= b >= c == d != e") == ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e"]


def test_increment_operator_tokenized_as_one():
    assert "++" in values("i++")


def test_modulo_operator():
    assert "%" in values("t % 2")


def test_brackets_and_punctuation():
    assert kinds("A[i][j];") == ["ident", "punct", "ident", "punct", "punct", "ident", "punct", "punct"]


def test_line_comments_are_skipped():
    assert values("a // comment\n b") == ["a", "b"]


def test_block_comments_are_skipped():
    assert values("a /* multi\nline */ b") == ["a", "b"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexerError):
        tokenize("a /* oops")


def test_preprocessor_lines_are_skipped():
    assert values("#define N 512\n x") == ["x"]


def test_unknown_character_raises_with_position():
    with pytest.raises(LexerError) as excinfo:
        tokenize("a @ b")
    assert "line 1" in str(excinfo.value)


def test_line_and_column_tracking():
    tokens = tokenize("a\n  b")
    assert tokens[0].line == 1 and tokens[0].column == 1
    assert tokens[1].line == 2 and tokens[1].column == 3


def test_full_stencil_line_tokenizes():
    source = "A[(t+1)%2][i][j] = (5.1f * A[t%2][i-1][j]) / 118;"
    token_values = values(source)
    assert "A" in token_values and "5.1f" in token_values and "118" in token_values
