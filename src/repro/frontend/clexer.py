"""Tokenizer for the C stencil subset.

Only the constructs that can legally appear in an AN5D input program are
recognised: identifiers, integer and floating-point literals (with the usual
``f`` suffix), arithmetic and comparison operators, the modulo operator used
for double buffering, assignment, increments, and the bracketing punctuation
of loops and array subscripts.

:func:`tokenize` is a single scan with one compiled master regex.  Each match
skips the whitespace, ``//`` and ``/* */`` comments and ``#`` preprocessor
lines before a token, then matches the token itself; line and column numbers
come from counting newlines between tokens.  The character classes follow
``str.isalpha`` (identifier start), ``str.isalnum`` (identifier body) and
``str.isdigit`` (digits): for ASCII these are ``[A-Za-z]``, ``[A-Za-z0-9]``
and ``[0-9]``, and a source with other characters gets those characters
added to the classes they belong to.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import List, NamedTuple

KEYWORDS = {"for", "if", "else", "int", "float", "double", "const", "return", "void"}

# Alternation tries operators in order, so multi-character operators come
# before their prefixes.
_OPERATORS = [
    "<=",
    ">=",
    "==",
    "!=",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "&&",
    "||",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
]

_PUNCTUATION = "()[]{};,"

#: The master regex; ``{alpha}``, ``{alnum}`` and ``{digit}`` are the
#: non-ASCII members of each character class for one source.  An
#: unterminated ``/*`` is left by the skip prefix and caught by ``comment``;
#: ``exp`` is empty when an exponent has no digits.
_MASTER = r"""
    [ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/|\#[^\n]*)[ \t\r\n]*)*
    (?:
        (?P<ident>[A-Za-z_{alpha}][A-Za-z0-9_{alnum}]*)
      | (?P<number>(?:{digit}+(?:\.{digit}*)?|\.{digit}+)(?:[eE][+-]?(?P<exp>{digit}*))?[fFlLuU]?)
      | (?P<punct>[{punct}])
      | (?P<comment>/\*)
      | (?P<op>{ops})
      | (?P<eof>\Z)
      | (?P<error>.)
    )
"""

_FLOAT_MARKS = frozenset(".eEfF")


class LexerError(ValueError):
    """Raised on input that is not part of the supported C subset."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Token(NamedTuple):
    """A single lexical token with its source position."""

    kind: str  # "ident", "keyword", "int", "float", "op", "punct", "eof"
    value: str
    line: int
    column: int


@lru_cache(maxsize=64)
def _master_regex(alpha: str, alnum: str, digit: str) -> re.Pattern[str]:
    pattern = _MASTER.format(
        alpha=alpha,
        alnum=alnum,
        digit=f"[0-9{digit}]",
        punct=re.escape(_PUNCTUATION),
        ops="|".join(map(re.escape, _OPERATORS)),
    )
    return re.compile(pattern, re.VERBOSE | re.DOTALL)


def _regex_for(source: str) -> re.Pattern[str]:
    if source.isascii():
        return _master_regex("", "", "")
    wide = sorted(ch for ch in set(source) if not ch.isascii())
    return _master_regex(
        "".join(ch for ch in wide if ch.isalpha()),
        "".join(ch for ch in wide if ch.isalnum()),
        "".join(ch for ch in wide if ch.isdigit()),
    )


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely, including the trailing EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    # tuple.__new__ skips the NamedTuple constructor's Python-level frame.
    new_tuple = tuple.__new__
    count_newlines = source.count
    line, line_start, pos = 1, 0, 0
    for match in _regex_for(source).finditer(source):
        kind = match.lastgroup
        end = match.end()
        value = match.group(kind)
        start = end - len(value)
        if start != pos:
            newlines = count_newlines("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, start) + 1
        pos = end
        if kind == "ident":
            if value in KEYWORDS:
                kind = "keyword"
        elif kind == "number":
            if match.group("exp") == "":
                raise LexerError("malformed exponent", line, match.start("exp") - line_start + 1)
            kind = "int" if _FLOAT_MARKS.isdisjoint(value) else "float"
        elif kind == "comment":
            raise LexerError("unterminated block comment", line, start - line_start + 1)
        elif kind == "error":
            raise LexerError(f"unexpected character {value!r}", line, start - line_start + 1)
        append(new_tuple(Token, (kind, value, line, start - line_start + 1)))
        if kind == "eof":
            break
    return tokens
