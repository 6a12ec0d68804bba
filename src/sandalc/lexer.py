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


_DIGITS = "0123456789"  # str.isdigit() also admits digits int() rejects, such as '²'


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


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


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, ending with a single EOF token.

    Raises LexError (with position) on an illegal character or an unknown
    fault marker.
    """
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def maybe_insert_semicolon() -> None:
        if tokens and not tokens[-1].synthetic and _ends_statement(tokens[-1]):
            tokens.append(Token(TokenKind.PUNCT, ";", line, col, synthetic=True))

    while i < n:
        ch = source[i]
        if ch == "\n":
            maybe_insert_semicolon()
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(source[j]):
                j += 1
            text = source[i:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            tokens.append(Token(TokenKind.NUMBER, source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == "@":
            j = i + 1
            while j < n and _is_ident_char(source[j]):
                j += 1
            name = source[i + 1 : j]
            if name not in FAULT_MARKERS:
                raise LexError(
                    f"unknown fault marker '@{name}' (expected @shutdown or @drop)",
                    Pos(start_line, start_col),
                )
            tokens.append(Token(TokenKind.FAULT_MARKER, "@" + name, start_line, start_col))
            col += j - i
            i = j
            continue
        for punct in PUNCTUATIONS:
            if source.startswith(punct, i):
                tokens.append(Token(TokenKind.PUNCT, punct, start_line, start_col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise LexError(f"illegal character {ch!r}", Pos(start_line, start_col))

    maybe_insert_semicolon()
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
