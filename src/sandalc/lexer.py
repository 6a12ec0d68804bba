"""Tokenizer for model source text.

The surface syntax is newline-sensitive in the Go style: a newline terminates
a statement when the last token on the line could end one (an identifier, a
literal, a closing bracket, a fault marker).  The lexer realizes this by
emitting a synthetic ";" token at such line breaks; the parser treats real and
synthetic semicolons alike as statement separators, but silently skips the
synthetic ones inside comma-separated lists.

Comments run from "//" to end of line and are discarded.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int
    synthetic: bool = field(default=False, compare=False)

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


# A newline after one of these ends a statement (Go-style semicolon insertion).
_ASI_KINDS = (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.FAULT_MARKER)
_ASI_KEYWORDS = frozenset({"true", "false", "bool"})
_ASI_PUNCTS = frozenset({")", "]", "}"})


def _ends_statement(tok: Token) -> bool:
    if tok.kind in _ASI_KINDS:
        return True
    if tok.kind is TokenKind.KEYWORD:
        return tok.text in _ASI_KEYWORDS
    if tok.kind is TokenKind.PUNCT:
        return tok.text in _ASI_PUNCTS
    return False


# One alternative per token class, tried in this order; a group named after a
# TokenKind makes a token of that kind.  An identifier must start with a letter
# or "_": ASCII digits make a number first, and tokenize rejects any other digit
# that \w admits, such as '²', which int() does not take.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+|//[^\n]*)"
    r"|(?P<NUMBER>[0-9]+)|(?P<IDENT>\w+)|(?P<FAULT_MARKER>@\w*)"
    "|(?P<PUNCT>" + "|".join(map(re.escape, PUNCTUATIONS)) + ")"
)
_KINDS = TokenKind.__members__


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, ending with a single EOF token.

    Raises LexError (with position) on an illegal character or an unknown
    fault marker.
    """
    tokens: list[Token] = []
    line = 1
    line_start = 0  # offset of the current line's first character

    def maybe_insert_semicolon(offset: int) -> None:
        if tokens and not tokens[-1].synthetic and _ends_statement(tokens[-1]):
            col = offset - line_start + 1
            tokens.append(Token(TokenKind.PUNCT, ";", line, col, synthetic=True))

    def illegal(offset: int) -> LexError:
        pos = Pos(line, offset - line_start + 1)
        return LexError(f"illegal character {source[offset]!r}", pos)

    end = 0
    for m in _TOKEN.finditer(source):
        start = m.start()
        if start != end:
            raise illegal(end)
        end = m.end()
        group = m.lastgroup
        if group == "newline":
            maybe_insert_semicolon(start)
            line += 1
            line_start = end
        elif group != "space":
            text = m.group()
            col = start - line_start + 1
            kind = _KINDS[group]
            if kind is TokenKind.IDENT:
                if not (text[0].isalpha() or text[0] == "_"):
                    raise illegal(start)
                if text in KEYWORDS:
                    kind = TokenKind.KEYWORD
            elif kind is TokenKind.FAULT_MARKER and text[1:] not in FAULT_MARKERS:
                raise LexError(
                    f"unknown fault marker '{text}' (expected @shutdown or @drop)",
                    Pos(line, col),
                )
            tokens.append(Token(kind, text, line, col))
    if end != len(source):
        raise illegal(end)
    maybe_insert_semicolon(end)
    tokens.append(Token(TokenKind.EOF, "", line, end - line_start + 1))
    return tokens
