from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sandalc.corpus import MODEL_NAMES, corpus_source
from sandalc.errors import LexError, Pos
from sandalc.lexer import KEYWORDS, PUNCTUATIONS, Token, TokenKind, tokenize


GOLDEN = Path(__file__).parent / "golden"


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


def _assert_texts_belong_to_their_kinds(tokens):
    """The parser tests a keyword or punctuation by its text alone."""
    for t in tokens:
        assert (t.text in KEYWORDS) == (t.kind is TokenKind.KEYWORD)
        assert (t.text in PUNCTUATIONS) == (t.kind is TokenKind.PUNCT)
        assert type(t.pos) is Pos


def test_empty_source_is_just_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.EOF


def test_template_header_tokens():
    tokens = tokenize("proc Starter(")
    assert kinds_and_texts(tokens[:3]) == [
        (TokenKind.KEYWORD, "proc"),
        (TokenKind.IDENT, "Starter"),
        (TokenKind.PUNCT, "("),
    ]
    assert tokens[-1].kind is TokenKind.EOF


def test_init_entry_ends_in_fault_marker():
    tokens = tokenize("arbiter : Arbiter(a, b) @shutdown")
    non_eof = [t for t in tokens if t.kind is not TokenKind.EOF and not t.synthetic]
    assert non_eof[-1].kind is TokenKind.FAULT_MARKER
    assert non_eof[-1].text == "@shutdown"
    assert non_eof[-1].marker_name == "shutdown"


def test_positions_point_into_source():
    tokens = tokenize("var x bool\n  x = true")
    var_tok = tokens[0]
    assert (var_tok.line, var_tok.col) == (1, 1)
    x_assign = [t for t in tokens if t.text == "x"][1]
    assert (x_assign.line, x_assign.col) == (2, 3)
    for t in tokens:
        if t.kind is not TokenKind.EOF:
            assert t.line >= 1 and t.col >= 1


def test_comments_are_discarded():
    tokens = tokenize("var x bool // trailing note\n// whole line\nx = true")
    texts = [t.text for t in tokens if t.kind is not TokenKind.EOF]
    assert "//" not in " ".join(texts)
    assert "trailing" not in " ".join(texts)


def test_synthetic_tokens_sit_at_the_newline_or_end_of_input():
    """A comment before them does not move them back to its own column."""
    semicolon = tokenize("x // c\n")[1]
    assert (semicolon.text, semicolon.synthetic, semicolon.pos) == (";", True, Pos(1, 7))
    eof = tokenize("x // c")[-1]
    assert (eof.kind, eof.pos) == (TokenKind.EOF, Pos(1, 7))


def rows(tokens):
    return [(t.kind, t.text, t.line, t.col, t.synthetic) for t in tokens]


def test_crlf_line_endings():
    """A carriage return is a blank: columns restart after the line feed, and
    the synthetic ";" sits on the line feed, not on the return before it."""
    K, I, P = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT
    assert rows(tokenize("var x bool\r\nx = true\r\n")) == [
        (K, "var", 1, 1, False), (I, "x", 1, 5, False), (K, "bool", 1, 7, False),
        (P, ";", 1, 12, True),
        (I, "x", 2, 1, False), (P, "=", 2, 3, False), (K, "true", 2, 5, False),
        (P, ";", 2, 10, True),
        (TokenKind.EOF, "", 3, 1, False),
    ]


def test_trailing_comment_at_end_of_input():
    assert rows(tokenize("a = b // note")[2:]) == [
        (TokenKind.IDENT, "b", 1, 5, False),
        (TokenKind.PUNCT, ";", 1, 14, True),
        (TokenKind.EOF, "", 1, 14, False),
    ]


def test_a_tab_is_one_column():
    assert [(t.text, t.col) for t in tokenize("\tx\t= y")] == [
        ("x", 2), ("=", 4), ("y", 6), (";", 7), ("", 7),
    ]


def test_long_blank_run_before_an_illegal_character():
    """A scan that backtracks over the blanks, or rescans them, would not finish."""
    with pytest.raises(LexError, match="illegal character '\\$'") as err:
        tokenize("a" + " " * 100_000 + "$")
    assert err.value.pos == Pos(1, 100_002)


def test_illegal_character_is_positioned():
    with pytest.raises(LexError) as err:
        tokenize("var x bool\n  x = $")
    assert err.value.pos.line == 2
    assert err.value.pos.col == 7


def test_only_ascii_digits_make_numbers():
    """'²' passes str.isdigit() but not int(); it is no number here."""
    with pytest.raises(LexError, match="illegal character") as err:
        tokenize("init { c: channel [²] { bool } }")
    assert err.value.pos.col == 20


def test_unknown_fault_marker_rejected():
    with pytest.raises(LexError) as err:
        tokenize("p : P() @explode")
    assert "@explode" in str(err.value)


@pytest.mark.parametrize("name", ["shutdown", "drop"])
def test_fault_marker_invariant(name):
    tok = tokenize(f"@{name}")[0]
    assert tok.kind is TokenKind.FAULT_MARKER
    assert tok.text.startswith("@")
    assert tok.marker_name in ("shutdown", "drop")


class TestSeparatorInsertion:
    def test_newline_after_expression_separates_statements(self):
        tokens = tokenize("a = b\nc = d")
        semis = [t for t in tokens if t.text == ";"]
        assert len(semis) == 2  # one mid-stream, one at end of input
        assert all(t.synthetic for t in semis)

    def test_no_separator_after_binary_operator(self):
        tokens = tokenize("a &&\nb")
        assert [t.text for t in tokens if t.text == ";"] == [";"]  # only the final one

    def test_no_separator_after_comma_or_open_paren(self):
        tokens = tokenize("f(a,\nb\n)")
        close = next(i for i, t in enumerate(tokens) if t.text == ")")
        semis = [t for t in tokens[:close] if t.text == ";" and t.synthetic]
        # only after `b` (an identifier at end of line), not after `(` or `,`
        assert len(semis) == 1

    def test_separator_after_closing_brace(self):
        tokens = tokenize("}\nproc")
        assert tokens[1].text == ";" and tokens[1].synthetic


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_token_concatenation_is_lexically_equivalent(name):
    """Joining token texts with spaces re-tokenizes to the same stream."""
    source = corpus_source(name)
    first = tokenize(source)
    flattened = " ".join(t.text for t in first if t.kind is not TokenKind.EOF)
    second = tokenize(flattened)
    assert kinds_and_texts(first) == kinds_and_texts(second)


_TEXTS = st.one_of(
    st.sampled_from(PUNCTUATIONS),
    st.sampled_from(sorted(KEYWORDS) + ["@drop", "@shutdown"]),
    st.from_regex(r"[A-Za-zéß_][A-Za-z0-9éß_]{0,4}", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}", fullmatch=True),
)
_GAPS = st.lists(
    st.sampled_from([" ", "\t", "\r", "\n", "\r\n", "//\n", "// note\n", "//x//\t\r\n"]),
    max_size=3,
).map("".join)
_TAILS = st.tuples(_GAPS, st.sampled_from(["", "//", "// end"])).map("".join)
_ENDS_STATEMENT = {")", "]", "}", "true", "false", "bool"}


@settings(database=None, deadline=None, derandomize=True, max_examples=300)
@given(st.lists(st.tuples(_GAPS, _TEXTS), max_size=30), _TAILS)
def test_tokens_cover_the_source(pieces, tail):
    """Whatever the lexer's design, on text made of token texts, blanks, comments
    and newlines: each token's text is at its position, the text between tokens
    is only blanks, comments and newlines, a synthetic ";" follows a token
    that ends a statement and sits on a newline or at the end of input, and a
    keyword or punctuation text is given only to a token of that kind."""
    source = "".join(gap + text for gap, text in pieces) + tail
    try:
        tokens = tokenize(source)
    except LexError:
        assume(False)  # a marker run into a name, such as "@dropx"
    _assert_texts_belong_to_their_kinds(tokens)
    line_offsets = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]

    def offset(tok):
        return line_offsets[tok.line - 1] + tok.col - 1

    covered = 0
    for before, tok in zip([None] + tokens, tokens):
        start = offset(tok)
        if tok.synthetic:
            assert tok.text == ";"
            assert start == len(source) or source[start] == "\n"
            assert not before.synthetic
            assert before.kind in (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.FAULT_MARKER) \
                or before.text in _ENDS_STATEMENT
            continue
        assert source[start:start + len(tok.text)] == tok.text
        for line in source[covered:start].split("\n"):
            assert line.split("//", 1)[0].strip(" \t\r") == ""
        covered = start + len(tok.text)
    assert tokens[-1].kind is TokenKind.EOF and covered == len(source)


def test_keyword_and_punctuation_texts_belong_to_their_kinds():
    sources = [corpus_source(name) for name in MODEL_NAMES]
    sources += [p.read_text() for p in sorted(GOLDEN.glob("*.sandal"))]
    for source in sources:
        _assert_texts_belong_to_their_kinds(tokenize(source))

