import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandalc import syntax as ast
from sandalc.corpus import MODEL_NAMES, corpus_source
from sandalc.errors import ParseError
from sandalc.lexer import tokenize
from sandalc.parser import parse_model, parse_source
from sandalc.pipeline import build_model
from printer import print_expr, print_model

GOLDEN = Path(__file__).parent / "golden"


def test_pingpong_shape():
    model = parse_source(corpus_source("pingpong"))
    assert len(model.proc_decls) == 2
    assert [p.name for p in model.proc_decls] == ["Starter", "Receiver"]
    assert len(model.init_block) == 4
    assert model.ltl_specs == ()
    starter = model.proc_decls[0]
    assert [p.name for p in starter.params] == ["recv_ch", "send_ch"]
    for param in starter.params:
        assert isinstance(param.type, ast.ChanTypeNode)
        assert param.type.capacity is None
        assert param.type.payload == (ast.BoolTypeNode(),)
    # `send(...); recv(...)` on one line is two statements
    assert len(starter.body.stmts) == 3


def test_two_phase_commit_shape():
    model = parse_source(corpus_source("2pc_allfaults"))
    assert len(model.data_decls) == 1
    assert model.data_decls[0].constructors == ("Ready", "NotReady", "Commit", "Abort")
    assert len(model.proc_decls) == 2
    assert len(model.init_block) == 7
    drops = [e for e in model.init_block if "drop" in e.markers]
    shutdowns = [e for e in model.init_block if "shutdown" in e.markers]
    assert len(drops) == 4 and all(not e.is_process for e in drops)
    assert len(shutdowns) == 3 and all(e.is_process for e in shutdowns)
    assert len(model.ltl_specs) == 1
    formula = model.ltl_specs[0].formula
    assert isinstance(formula, ast.Temporal) and formula.op == "F"
    assert isinstance(formula.operand, ast.Temporal) and formula.operand.op == "G"


def test_arbiter_array_arguments():
    model = parse_source(corpus_source("2pc_allfaults"))
    arbiter = next(e for e in model.init_block if e.name == "arbiter")
    args = arbiter.payload.args
    assert len(args) == 2
    assert all(isinstance(a, ast.ArrayLit) for a in args)
    assert [e.ident for e in args[0].elements] == ["chWorker1Send", "chWorker2Send"]


def test_duplicate_init_block_rejected():
    with pytest.raises(ParseError) as err:
        parse_source("init {}\ninit {}")
    assert "init" in str(err.value)


def test_missing_init_block_rejected():
    with pytest.raises(ParseError):
        parse_source("proc P() { var x bool }")


def test_trailing_comma_in_init_accepted():
    model = parse_source("init {\n  c: channel { bool },\n}")
    assert len(model.init_block) == 1


def test_marker_only_in_init_trailing_position():
    with pytest.raises(ParseError):
        parse_source("proc P() { @shutdown }\ninit {}")


def test_drop_on_process_rejected():
    with pytest.raises(ParseError) as err:
        parse_source("proc P() { var x bool }\ninit { p: P() @drop }")
    assert "@drop" in str(err.value)


def test_shutdown_on_channel_rejected():
    with pytest.raises(ParseError) as err:
        parse_source("init { c: channel { bool } @shutdown }")
    assert "@shutdown" in str(err.value)


def test_choice_needs_two_blocks():
    source = "proc P(c channel { bool }) { choice { send(c, true) } }\ninit {}"
    with pytest.raises(ParseError):
        parse_source(source)


def test_buffered_channel_type():
    model = parse_source("init { c: channel [2] { bool } }")
    entry = model.init_block[0]
    assert entry.payload.type.capacity == 2


def test_buffered_capacity_required_and_positive():
    with pytest.raises(ParseError):
        parse_source("init { c: channel [] { bool } }")
    with pytest.raises(ParseError):
        parse_source("init { c: channel [0] { bool } }")


def test_buffer_capacity_of_any_length_is_parsed_or_rejected():
    model = parse_source("init { c: channel [" + "0" * 5000 + "7] { bool } }")
    assert model.init_block[0].payload.type.capacity == 7
    for digits in ("1" * 10, "9" * 5000):  # int() refuses past 4300 digits
        with pytest.raises(ParseError, match="buffer capacity is too large") as err:
            parse_source("init { c: channel [" + digits + "] { bool } }")
        assert (err.value.pos.line, err.value.pos.col) == (1, 20)


def test_multi_payload_channel_type():
    model = parse_source("init { c: channel { bool, bool } }")
    assert len(model.init_block[0].payload.type.payload) == 2


def test_else_if_chain():
    source = (
        "proc P() {\n"
        "  var x bool\n"
        "  if x { x = false } else if !x { x = true } else { x = x }\n"
        "}\n"
        "init {}"
    )
    model = parse_source(source)
    stmt = model.proc_decls[0].body.stmts[1]
    assert isinstance(stmt, ast.If)
    nested = stmt.els.stmts[0]
    assert isinstance(nested, ast.If) and nested.els is not None


def test_parse_errors_cite_the_offending_token():
    with pytest.raises(ParseError) as err:
        parse_source("proc P() {\n  var x bool\n  var = bool\n}\ninit {}")
    assert (err.value.pos.line, err.value.pos.col) == (3, 7)
    assert "identifier" in str(err.value)


@pytest.mark.parametrize("spec, col, op", [
    ("G (p.x == p.x == p.x)", 21, "=="),
    ("G (p.ok && p.x == p.x == p.x)", 29, "=="),
    ("G (p.x != p.x == p.x)", 21, "=="),
])
def test_equality_does_not_chain(spec, col, op):
    """`==` and `!=` take one comparison; a second one is an error at its operator."""
    source = f"proc P() {{ var x bool\n var ok bool }}\ninit {{ p: P() }}\nltl {{ {spec} }}\n"
    with pytest.raises(ParseError) as err:
        parse_source(source)
    assert (err.value.pos.line, err.value.pos.col) == (4, col)
    assert err.value.message == (
        f"expected ')' to close the parenthesized expression, found {op!r}"
    )


def test_implication_nests_to_the_right():
    expr = parse_source("proc P() { x = a -> b -> c }\ninit {}").proc_decls[0].body.stmts[0].value
    a, b, c = (ast.Name(ident=n) for n in "abc")
    assert expr == ast.Binary(op="->", left=a, right=ast.Binary(op="->", left=b, right=c))


def test_statements_separated_by_semicolon_or_newline():
    by_semi = parse_source("proc P() { var a bool; a = true }\ninit {}")
    by_newline = parse_source("proc P() {\n  var a bool\n  a = true\n}\ninit {}")
    assert by_semi.proc_decls[0].body == by_newline.proc_decls[0].body


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_pretty_print_round_trip(name):
    """parse(print(parse(s))) is structurally equal to parse(s)."""
    first = parse_source(corpus_source(name))
    second = parse_source(print_model(first))
    assert first == second


def test_round_trip_covers_all_statement_forms():
    source = (
        "data V { A, B }\n"
        "proc P(c channel { V }, buf channel [2] { bool }, arr []channel { V }, flag bool) {\n"
        "  var x V\n"
        "  var ok bool = flag\n"
        "  x = A\n"
        "  send(c, x)\n"
        "  recv(c, x)\n"
        "  peek(buf, ok)\n"
        "  ok = timeout_recv(c, x)\n"
        "  if ok { x = B } else { x = A }\n"
        "  if nonblock_recv(c, x) { ok = false }\n"
        "  for ch in arr {\n"
        "    send(ch, B)\n"
        "  }\n"
        "  choice { send(c, A) }, { x = B }, {  }\n"
        "}\n"
        "init {\n"
        "  c: channel { V } @drop,\n"
        "  b: channel [2] { bool },\n"
        "  a1: channel { V },\n"
        "  p: P(c, b, [a1], true) @shutdown,\n"
        "}\n"
        "ltl { G ((p.ok && !(p.x == A)) -> F (p.ok || false != true)) }"
    )
    first = parse_source(source)
    second = parse_source(print_model(first))
    assert first == second


def test_ltl_block_can_name_the_constructors_g_and_f():
    """`G` and `F` are operators only before a token that starts an operand."""
    source = (
        "data D { G, F }\n"
        "proc P() { var x D = F\n  x = G }\n"
        "init { p: P() }\n"
        "ltl { G (p.x == F) }\n"
        "ltl { F (G != p.x) }\n"
        "ltl { F G !(p.x == G) }\n"
        "ltl { G true }\n"
    )
    px = ast.Qualified(instance="p", variable="x")
    g, f = ast.Name(ident="G"), ast.Name(ident="F")
    assert [spec.formula for spec in parse_source(source).ltl_specs] == [
        ast.Temporal(op="G", operand=ast.Binary(op="==", left=px, right=f)),
        ast.Temporal(op="F", operand=ast.Binary(op="!=", left=g, right=px)),
        ast.Temporal(op="F", operand=ast.Temporal(
            op="G", operand=ast.Unary(op="!", operand=ast.Binary(op="==", left=px, right=g)))),
        ast.Temporal(op="G", operand=ast.BoolLit(value=True)),
    ]
    assert len(build_model(source).system.ltl_specs) == 4


_NAMES = st.sampled_from(["x", "p", "G", "F"])
_LEAVES = st.one_of(
    st.builds(ast.Name, ident=_NAMES),
    st.builds(ast.BoolLit, value=st.booleans()),
    st.builds(ast.Qualified, instance=_NAMES, variable=_NAMES),
)


def expressions(temporal: bool):
    """Expression trees; with `temporal`, `G` and `F` nodes too, as in an ltl block."""

    def extend(children):
        nodes = [
            st.builds(ast.Unary, op=st.just("!"), operand=children),
            st.builds(ast.Binary, op=st.sampled_from(["->", "||", "&&", "==", "!="]),
                      left=children, right=children),
        ]
        if temporal:
            nodes.append(st.builds(ast.Temporal, op=st.sampled_from(["G", "F"]), operand=children))
        return st.one_of(nodes)

    return st.recursive(_LEAVES, extend, max_leaves=12)


@settings(database=None, deadline=None, derandomize=True, max_examples=300)
@given(expressions(temporal=False), expressions(temporal=True))
def test_printed_expressions_parse_back(expr, formula):
    """parse∘print is the identity on expressions, in a template and in ltl blocks."""
    source = (
        f"proc P() {{ x = {print_expr(expr)} }}\n"
        "init {}\n"
        f"ltl {{ {print_expr(expr)} }}\n"
        f"ltl {{ {print_expr(formula)} }}\n"
    )
    model = parse_source(source)
    assert model.proc_decls[0].body.stmts[0].value == expr
    assert [spec.formula for spec in model.ltl_specs] == [expr, formula]


def _mutation_outcomes():
    """One outcome line per one-token mutation of every corpus and golden model:
    each token but the final EOF in turn deleted, then duplicated."""
    sources = [corpus_source(name) for name in MODEL_NAMES]
    sources += [p.read_text() for p in sorted(GOLDEN.glob("*.sandal"))]
    lines = []
    for source in sources:
        tokens = tokenize(source)
        for i in range(len(tokens) - 1):
            for variant in (tokens[:i] + tokens[i + 1:], tokens[:i + 1] + tokens[i:]):
                try:
                    lines.append("ok " + print_model(parse_model(variant)))
                except ParseError as e:
                    lines.append(f"{type(e).__name__} {e.pos} {e.message}")
    return lines


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_token_mutations_keep_their_outcome():
    """The printed tree or the diagnostic, with its position, of each of 4,554
    malformed token lists is pinned by one digest.  Regenerate it, only for an
    intended change of the parser's output, with
        PYTHONPATH=src python tests/test_parser.py
    and review why the outcomes changed."""
    lines = _mutation_outcomes()
    assert len(lines) == 4554
    assert _digest(lines) == "bf341422776adf7304841f8c7790e0e5930b53c1b4a2728560be372e97476ee2"


if __name__ == "__main__":
    print(_digest(_mutation_outcomes()))
