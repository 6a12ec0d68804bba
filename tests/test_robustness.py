"""Property-based robustness: no input crashes the compiler or the CLI.

Arbitrary text and token soup drawn from the lexer's vocabulary go through
build_model, which may only raise a positioned SandalError, and through
`sandalc check`, which may only exit 0-3.  Runs of `(`, `!` and `&& x` push
the parser's nesting and expression-depth bounds.  Whole declarations and
statements, and soup inside the body of an otherwise valid model, carry many
inputs past the parser into checking, lowering, weaving and the search.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandalc.cli import run
from sandalc.errors import SandalError
from sandalc.lexer import FAULT_MARKERS, KEYWORDS, PUNCTUATIONS
from sandalc.pipeline import build_model

SETTINGS = settings(database=None, deadline=None, derandomize=True, max_examples=300)

_WORDS = (
    sorted(KEYWORDS)
    + [f"@{marker}" for marker in sorted(FAULT_MARKERS)]
    + list(PUNCTUATIONS)
    + ["x", "y", "p", "q", "P", "Q", "c", "A", "B", "G", "F", "0", "1", "3", "\n"]
)
_RUNS = ["(" * 70, "!" * 70, " && x" * 300, "{" * 70, "else if x {" * 70]
_DECLARATIONS = [
    "data D { A, B }\n",
    "proc P(c channel { bool }, b channel [2] { D }, cs []channel { bool }) {\n",
    "var x bool\n",
    "}\n",
    "init { c: channel { bool } @drop, p: P(c) @shutdown, q: P(c) }\n",
    "ltl { G (p.x || !q.x) }\n",
    "ltl { F (G (p.x)) }\n",
]
_STATEMENTS = [
    "send(c, x)\n",
    "recv(c, x)\n",
    "x = timeout_recv(c, x)\n",
    "var z D = B\n",
    "if nonblock_recv(b, y) { x = y == A } else { send(b, B) }\n",
    "peek(b, y)\n",
    "for d in cs { send(d, !x) }\n",
    "choice { x = true }, { recv(c, x) }\n",
    "x = x && !x || x -> x != x\n",
]
_FRAGMENTS = st.sampled_from(_WORDS + _RUNS + _DECLARATIONS + _STATEMENTS)

# A model whose one process body is soup, or a random list of statements.
_PROLOGUE = (
    "data D { A, B }\n"
    "proc P(c channel { bool }, b channel [2] { D }, cs []channel { bool }) {\n"
    "var x bool\nvar y D\n"
)
_EPILOGUE = (
    "\n}\n"
    "init { c: channel { bool } @drop, b: channel [2] { D }, d: channel { bool },\n"
    "  p: P(c, b, [d]) @shutdown, q: P(c, b, []) }\n"
    "ltl { G (p.x || !q.x) }\n"
    "ltl { F (G (p.x == q.x)) }\n"
)

token_soup = st.one_of(
    st.lists(_FRAGMENTS, max_size=40).map(" ".join),
    st.lists(st.sampled_from(_STATEMENTS) | _FRAGMENTS, max_size=10)
    .map(lambda body: _PROLOGUE + " ".join(body) + _EPILOGUE),
    st.lists(st.sampled_from(_STATEMENTS), max_size=6)
    .map(lambda body: _PROLOGUE + "".join(body) + _EPILOGUE),
)


def _build(source):
    try:
        build_model(source)
    except SandalError:
        pass


@SETTINGS
@given(st.text(max_size=200))
def test_arbitrary_text_raises_only_sandal_errors(source):
    _build(source)


@SETTINGS
@given(token_soup)
def test_token_soup_raises_only_sandal_errors(source):
    _build(source)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("soup") / "model.sandal"


@SETTINGS
@given(source=token_soup)
def test_check_exits_with_a_documented_code(model_path, source):
    model_path.write_text(source, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["check", str(model_path), "--max-states", "1000"])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "internal error" not in err.getvalue()
