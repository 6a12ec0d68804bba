"""Tokenizer for model source text.

The surface syntax is newline-sensitive in the Go style: a newline terminates
a statement when the last token on the line could end one (an identifier, a
literal, a closing bracket, a fault marker).  The lexer realizes this by
emitting a synthetic ";" token at such line breaks; the parser treats real and
synthetic semicolons alike as statement separators, but silently skips the
synthetic ones inside comma-separated lists.

Comments run from "//" to end of line and are discarded.

tokenize walks the matches of _TOKEN in order, one per token or newline,
each starting where the previous one ended.  A match first skips the blanks
and at most one comment before the token: a comment runs to the newline,
which is a match of its own, so no more than one can come between two tokens.
The skip, `[ \t\r]*(?://[^\n]*)?`, has no nested quantifier, so it can be
read only one way and never backtracks; `(?:[ \t\r]+|//[^\n]*)*` would try
exponentially many ways to split a long run of blanks before failing.  The
last alternatives match the end of input and any illegal character, so a
match starts at every offset, finditer skips no text, and a line of blanks
costs one pass.  Possessive and atomic groups would say the same, but they
need Python 3.11.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .errors import LexError, Pos


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    PUNCT = "punctuation"
    FAULT_MARKER = "fault-marker"
    NUMBER = "number"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "proc", "data", "init", "ltl",
        "var", "if", "else", "for", "in", "choice",
        "channel", "bool", "true", "false",
        "send", "recv", "peek", "timeout_recv", "nonblock_recv",
    }
)

FAULT_MARKERS = frozenset({"shutdown", "drop"})

# Longest first so that "&&" wins over a would-be "&".
PUNCTUATIONS = (
    "&&", "||", "->", "==", "!=",
    "(", ")", "{", "}", "[", "]",
    ",", ";", ":", ".", "=", "!",
)


class Token(NamedTuple):
    """One token: its kind, its text and where it starts (1-based line and
    column, counted in characters).

    A token is a tuple, so equality compares all five fields, `synthetic`
    included: a newline-inserted ";" does not equal a written one.
    """

    kind: TokenKind
    text: str
    line: int
    col: int
    synthetic: bool = False

    @property
    def pos(self) -> Pos:
        return Pos(self.line, self.col)

    @property
    def marker_name(self) -> str:
        return self.text.lstrip("@")

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "end of input"
        return repr(self.text)


# A newline after one of these ends a statement (Go-style semicolon insertion):
# a token of a kind in _ASI_KINDS, or a keyword or punctuation whose text is in
# _ASI_TEXTS (no identifier, number or marker has such a text).
_ASI_KINDS = (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.FAULT_MARKER)
_ASI_TEXTS = frozenset({"true", "false", "bool", ")", "]", "}"})

# Blanks and a comment, then one alternative per token class, tried in this
# order (see the module docstring).  A group named after a TokenKind makes a
# token of that kind.  An identifier must start with a letter or "_": ASCII
# digits make a number first, and tokenize rejects any other digit that \w
# admits, such as '²', which int() does not take.
_TOKEN = re.compile(
    r"[ \t\r]*(?://[^\n]*)?"
    r"(?:(?P<newline>\n)|(?P<NUMBER>[0-9]+)|(?P<IDENT>\w+)|(?P<FAULT_MARKER>@\w*)"
    "|(?P<PUNCT>" + "|".join(map(re.escape, PUNCTUATIONS)) + ")"
    r"|(?P<EOF>\Z)|(?P<illegal>.))"
)
_KINDS = TokenKind.__members__


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, ending with a single EOF token.

    Raises LexError (with position) on an illegal character or an unknown
    fault marker.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token's own __new__ is a Python frame per token
    line = 1
    line_start = 0  # offset of the current line's first character
    ends_statement = False  # whether a newline here would insert ";"
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        end = m.end()
        text = m[group]
        col = end - len(text) - line_start + 1
        if group == "newline":
            if ends_statement:
                append(new(Token, (TokenKind.PUNCT, ";", line, col, True)))
                ends_statement = False
            line += 1
            line_start = end
            continue
        if group == "EOF":
            if ends_statement:
                append(new(Token, (TokenKind.PUNCT, ";", line, col, True)))
            append(new(Token, (TokenKind.EOF, "", line, col, False)))
            return tokens
        if group == "illegal":
            raise LexError(f"illegal character {text!r}", Pos(line, col))
        kind = _KINDS[group]
        if kind is TokenKind.IDENT:
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"illegal character {text[0]!r}", Pos(line, col))
            if text in KEYWORDS:
                kind = TokenKind.KEYWORD
        elif kind is TokenKind.FAULT_MARKER and text[1:] not in FAULT_MARKERS:
            raise LexError(
                f"unknown fault marker '{text}' (expected @shutdown or @drop)",
                Pos(line, col),
            )
        append(new(Token, (kind, text, line, col, False)))
        ends_statement = kind in _ASI_KINDS or text in _ASI_TEXTS
