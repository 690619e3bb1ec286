"""Tokenizer for the C stencil subset.

Only the constructs that can legally appear in an AN5D input program are
recognised: identifiers, integer and floating-point literals (with the usual
``f`` suffix), arithmetic and comparison operators, the modulo operator used
for double buffering, assignment, increments, and the bracketing punctuation
of loops and array subscripts.

:func:`lex` is one ``findall`` over a master regex that skips a gap
(whitespace, ``//`` and ``/* */`` comments, ``#`` preprocessor lines) and
captures the next token's spelling.  It returns a :class:`TokenStream` of
parallel ``values``, ``kinds`` and ``offsets`` lists.  Kinds (and lexical
errors) are worked out once per distinct spelling, so a stencil's thousands
of tokens cost Python work only for the few dozen spellings they repeat.
Offsets, from a second scan, and line and column numbers, from a newline
index, are built only when something asks for them: the position of a
:class:`LexerError`, or a :class:`Token` from :meth:`TokenStream.token` for
a parse error.

The character classes follow ``str.isalpha`` (identifier start),
``str.isalnum`` (identifier body) and ``str.isdigit`` (digits): for ASCII
these are ``[A-Za-z]``, ``[A-Za-z0-9]`` and ``[0-9]``, and a source with
other characters gets those characters added to the classes they belong to.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Tuple

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

#: What is skipped before a token.  An unterminated ``/*`` is left here and
#: caught by the token's ``comment`` alternative.
_GAP = r"[ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/|\#[^\n]*)[ \t\r\n]*)*"

#: One token; ``{alpha}``, ``{alnum}`` and ``{digit}`` are the non-ASCII
#: members of each character class for one source.  The empty ``eof``
#: spelling matches only at the end, and ``exp`` is empty when an exponent
#: has no digits.
_TOKEN = r"""
    (?P<ident>[A-Za-z_{alpha}][A-Za-z0-9_{alnum}]*)
  | (?P<number>(?:{digit}+(?:\.{digit}*)?|\.{digit}+)(?:[eE][+-]?(?P<exp>{digit}*))?[fFlLuU]?)
  | (?P<punct>[{punct}])
  | (?P<comment>/\*)
  | (?P<op>{ops})
  | (?P<eof>\Z)
  | (?P<error>.)
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


class TokenStream:
    """The tokens of one source as parallel lists, ending in one ``eof``.

    ``values[n]`` is token ``n``'s spelling and ``kinds[n]`` its kind.
    ``offsets[n]``, the index of its first character in ``source``, and the
    newline index behind :meth:`position` are built on first use.
    """

    def __init__(self, source: str, master: re.Pattern[str], values: List[str], kinds: List[str]) -> None:
        self.source = source
        self._master = master
        self.values = values
        self.kinds = kinds

    @cached_property
    def offsets(self) -> List[int]:
        # The scan that found the spellings, repeated for their positions.
        starts = [match.start(1) for match in self._master.finditer(self.source)]
        return starts[: len(self.values)]

    @cached_property
    def _line_ends(self) -> List[int]:
        return [match.start() for match in re.finditer("\n", self.source)]

    def position(self, offset: int) -> Tuple[int, int]:
        """``(line, column)``, both from 1, of the character at ``offset``."""
        line = bisect_left(self._line_ends, offset)
        line_start = self._line_ends[line - 1] + 1 if line else 0
        return line + 1, offset - line_start + 1

    def token(self, index: int) -> Token:
        """Token ``index`` with its line and column."""
        return Token(self.kinds[index], self.values[index], *self.position(self.offsets[index]))


@lru_cache(maxsize=64)
def _regexes(alpha: str, alnum: str, digit: str) -> Tuple[re.Pattern[str], re.Pattern[str]]:
    """The master regex, a gap then one captured token, for ``findall``, and
    the named-group token regex that classifies one spelling."""
    token = _TOKEN.format(
        alpha=alpha,
        alnum=alnum,
        digit=f"[0-9{digit}]",
        punct=re.escape(_PUNCTUATION),
        ops="|".join(map(re.escape, _OPERATORS)),
    )
    master = f"(?:{_GAP})({re.sub(r'[(][?]P<[a-z]+>', '(?:', token)})"
    return re.compile(master, re.VERBOSE | re.DOTALL), re.compile(token, re.VERBOSE | re.DOTALL)


def _regexes_for(source: str) -> Tuple[re.Pattern[str], re.Pattern[str]]:
    if source.isascii():
        return _regexes("", "", "")
    wide = sorted(ch for ch in set(source) if not ch.isascii())
    return _regexes(
        "".join(ch for ch in wide if ch.isalpha()),
        "".join(ch for ch in wide if ch.isalnum()),
        "".join(ch for ch in wide if ch.isdigit()),
    )


def _classify(spelling: str, token_regex: re.Pattern[str], problems: Dict[str, Tuple[str, int]]) -> str:
    """The kind of one spelling; a spelling that is a lexical error is also
    entered in ``problems`` with its message and its offset in the spelling."""
    match = token_regex.fullmatch(spelling)
    kind = match.lastgroup
    if kind == "ident":
        return "keyword" if spelling in KEYWORDS else "ident"
    if kind == "number":
        if match.group("exp") == "":
            problems[spelling] = ("malformed exponent", match.start("exp"))
        return "int" if _FLOAT_MARKS.isdisjoint(spelling) else "float"
    if kind == "comment":
        problems[spelling] = ("unterminated block comment", 0)
    elif kind == "error":
        problems[spelling] = (f"unexpected character {spelling!r}", 0)
    return kind


def lex(source: str) -> TokenStream:
    """Tokenize ``source`` completely, including the trailing ``eof``."""
    master, token_regex = _regexes_for(source)
    values = master.findall(source)
    # The eof spelling is the only empty one; after a trailing gap findall
    # also reports the empty match at the end, which is dropped.
    if len(values) > 1 and values[-2] == "":
        values.pop()
    problems: Dict[str, Tuple[str, int]] = {}
    kind_of = {spelling: _classify(spelling, token_regex, problems) for spelling in set(values)}
    stream = TokenStream(source, master, values, list(map(kind_of.__getitem__, values)))
    if problems:
        first = min(map(values.index, problems))
        message, shift = problems[values[first]]
        raise LexerError(message, *stream.position(stream.offsets[first] + shift))
    return stream

