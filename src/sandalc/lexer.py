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
need Python 3.11.  The loop tests a match's group in order of frequency:
punctuation (about 47% of the benchmark's matches), identifiers and keywords
(39%), newlines (12%), then the rest, each in a straight-line branch that
knows its token's kind and whether a newline after it ends a statement.
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


_new = tuple.__new__


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
        return _new(Pos, (self.line, self.col))  # Pos's own __new__ is a Python frame

    @property
    def marker_name(self) -> str:
        return self.text.lstrip("@")

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "end of input"
        return repr(self.text)


# A newline after one of these ends a statement (Go-style semicolon insertion):
# an identifier, a number, a fault marker, or a keyword or punctuation whose
# text is in _ASI_TEXTS.
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


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, ending with a single EOF token.

    Raises LexError (with position) on an illegal character or an unknown
    fault marker.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = _new  # Token's own __new__ is a Python frame per token
    keyword, ident, punct = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT
    line = 1
    line_start = 0  # offset of the current line's first character
    ends_statement = False  # whether a newline here would insert ";"
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        if group == "PUNCT":
            text = m["PUNCT"]
            append(new(Token, (punct, text, line, m.start("PUNCT") - line_start + 1, False)))
            ends_statement = text in _ASI_TEXTS
        elif group == "IDENT":
            text = m["IDENT"]
            col = m.start("IDENT") - line_start + 1
            # ASCII digits make a number first, so only a non-ASCII start can fail.
            if text[0] > "z" and not text[0].isalpha():
                raise LexError(f"illegal character {text[0]!r}", Pos(line, col))
            if text in KEYWORDS:
                append(new(Token, (keyword, text, line, col, False)))
                ends_statement = text in _ASI_TEXTS
            else:
                append(new(Token, (ident, text, line, col, False)))
                ends_statement = True
        elif group == "newline":
            if ends_statement:
                append(new(Token, (punct, ";", line, m.end() - line_start, True)))
                ends_statement = False
            line += 1
            line_start = m.end()
        else:
            text = m[group]
            col = m.start(group) - line_start + 1
            if group == "NUMBER":
                append(new(Token, (TokenKind.NUMBER, text, line, col, False)))
            elif group == "FAULT_MARKER":
                if text[1:] not in FAULT_MARKERS:
                    raise LexError(
                        f"unknown fault marker '{text}' (expected @shutdown or @drop)",
                        Pos(line, col),
                    )
                append(new(Token, (TokenKind.FAULT_MARKER, text, line, col, False)))
            elif group == "EOF":
                if ends_statement:
                    append(new(Token, (punct, ";", line, col, True)))
                append(new(Token, (TokenKind.EOF, "", line, col, False)))
                return tokens
            else:
                raise LexError(f"illegal character {text!r}", Pos(line, col))
            ends_statement = True
