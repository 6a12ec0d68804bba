import pytest

from sandalc.corpus import MODEL_NAMES, corpus_source
from sandalc.errors import LexError, Pos
from sandalc.lexer import Token, TokenKind, tokenize


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


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
