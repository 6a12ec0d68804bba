import sys
from pathlib import Path

import pytest

from sandalc import syntax
from sandalc.corpus import MODEL_NAMES, corpus_source
from sandalc.errors import (
    ArityError,
    NameResolutionError,
    ParseError,
    SandalError,
    TypeCheckError,
)
from sandalc.parser import parse_source
from sandalc.sema import (
    BOOL,
    EnumType,
    PAtom,
    instantiate,
    resolve_and_check,
    zero_value,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from models import FAULT_MIXES, SPEC_KINDS, job_source  # noqa: E402


def check(source):
    return resolve_and_check(parse_source(source))


def build_instance(source):
    return instantiate(check(source))


def _nodes(node):
    """A parse-tree node and every node under it."""
    yield node
    for field in node.__record_fields__:
        value = getattr(node, field)
        for child in value if isinstance(value, tuple) else (value,):
            if hasattr(child, "__record_fields__"):
                yield from _nodes(child)


def test_two_phase_commit_resp_typed_in_both_templates():
    checked = check(corpus_source("2pc_allfaults"))
    response = checked.enums["Response"]
    assert isinstance(response, EnumType)
    for template in ("Arbiter", "Worker"):
        info = checked.templates[template]
        decls = [
            n for n in _nodes(info.template.body)
            if isinstance(n, syntax.VarDecl) and n.name == "resp"
        ]
        resp_slots = [info.resolved[id(decl)] for decl in decls]
        assert resp_slots and all(s.type == response for s in resp_slots)
        assert all(info.slots[s.slot] is s for s in resp_slots)


def test_wrong_payload_type_rejected():
    source = (
        "data Response { Ready, NotReady, Commit, Abort }\n"
        "proc P(c channel { Response }) { send(c, true) }\n"
        "init { c: channel { Response }, p: P(c) }"
    )
    with pytest.raises(TypeCheckError):
        check(source)


def test_unknown_ltl_instance_rejected():
    source = corpus_source("2pc_allfaults").replace("worker1.resp", "worker3.resp")
    with pytest.raises(NameResolutionError) as err:
        check(source)
    assert "worker3" in str(err.value)


def test_ltl_atom_must_be_top_level_variable():
    # the arbiter's `resp` is declared inside a loop body, not at proc level
    source = corpus_source("2pc_nofault").replace("worker1.resp", "arbiter.resp")
    with pytest.raises(NameResolutionError):
        check(source)


def test_pingpong_instantiation():
    instance = build_instance(corpus_source("pingpong"))
    assert [p.name for p in instance.processes] == ["P0", "P1"]
    assert [c.name for c in instance.channels] == [
        "receiver_to_starter",
        "starter_to_receiver",
    ]
    assert all(not c.type.is_buffered for c in instance.channels)
    assert all(not c.drop_fault for c in instance.channels)
    assert all(not p.shutdown_fault for p in instance.processes)


def test_two_phase_commit_instantiation():
    instance = build_instance(corpus_source("2pc_allfaults"))
    assert [p.name for p in instance.processes] == ["arbiter", "worker1", "worker2"]
    assert all(p.shutdown_fault for p in instance.processes)
    assert len(instance.channels) == 4
    assert all(c.drop_fault for c in instance.channels)
    arbiter = instance.processes[0]
    assert arbiter.args["chRecvs"] == (0, 2)  # chWorker1Send, chWorker2Send
    assert arbiter.args["chSends"] == (1, 3)


def test_empty_system_is_legal():
    instance = build_instance("init {}")
    assert instance.processes == ()
    assert instance.channels == ()


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_marker_placement_invariant(name):
    instance = build_instance(corpus_source(name))
    # channels never carry shutdown, processes never carry drop: the decl
    # types make this impossible, so just confirm the fields line up
    assert all(isinstance(c.drop_fault, bool) for c in instance.channels)
    assert all(isinstance(p.shutdown_fault, bool) for p in instance.processes)


def test_instantiate_is_deterministic():
    source = corpus_source("2pc_allfaults")
    a = build_instance(source)
    b = build_instance(source)
    assert [p.name for p in a.processes] == [p.name for p in b.processes]
    assert [c.name for c in a.channels] == [c.name for c in b.channels]
    assert a.processes[0].args == b.processes[0].args


def test_zero_initialization_rule():
    checked = check(corpus_source("2pc_allfaults"))
    worker = checked.templates["Worker"]
    resp = worker.slots[worker.body_level["resp"]]
    assert zero_value(resp.type) == "Ready"  # first declared constructor
    arbiter = checked.templates["Arbiter"]
    determined = arbiter.slots[arbiter.body_level["determined"]]
    assert zero_value(determined.type) is False


def test_ltl_atoms_resolve_to_process_and_slot():
    instance = build_instance(corpus_source("2pc_allfaults"))
    formula = instance.ltl_specs[0].formula
    atoms = []

    def walk(p):
        if isinstance(p, PAtom):
            atoms.append(p)
        for child in getattr(p, "__dict__", {}).values():
            if hasattr(child, "__record_fields__"):
                walk(child)

    walk(formula)

    def name(atom):
        proc = instance.processes[atom.proc]
        return proc.name, instance.template_info(proc).slots[atom.slot].name

    names = {name(a) for a in atoms}
    assert names == {
        ("arbiter", "determined"),
        ("arbiter", "all_ready"),
        ("worker1", "resp"),
        ("worker2", "resp"),
    }
    arbiter_atom = next(a for a in atoms if name(a) == ("arbiter", "determined"))
    assert arbiter_atom.proc == 0
    arbiter = instance.template_info(instance.processes[0])
    assert arbiter.slots[arbiter_atom.slot].type == BOOL


class TestRejections:
    def test_recv_target_count_mismatch(self):
        source = (
            "proc P(c channel { bool, bool }) { var x bool\n  recv(c, x) }\n"
            "init { c: channel { bool, bool }, p: P(c) }"
        )
        with pytest.raises(ArityError):
            check(source)

    def test_recv_target_type_mismatch(self):
        source = (
            "data V { A, B }\n"
            "proc P(c channel { V }) { var x bool\n  recv(c, x) }\n"
            "init { c: channel { V }, p: P(c) }"
        )
        with pytest.raises(TypeCheckError):
            check(source)

    def test_receive_expression_outside_boolean_position(self):
        source = (
            "proc P(c channel { bool }) { var x bool\n  send(c, timeout_recv(c, x)) }\n"
            "init { c: channel { bool }, p: P(c) }"
        )
        with pytest.raises(SandalError):
            check(source)

    def test_receive_target_must_be_a_local_variable(self):
        source = (
            "proc P(c channel { bool }, flag bool) { recv(c, flag) }\n"
            "init { c: channel { bool }, p: P(c, true) }"
        )
        with pytest.raises(TypeCheckError) as err:
            check(source)
        assert err.value.pos.line >= 1

    def test_peek_on_rendezvous_rejected(self):
        source = (
            "proc P(c channel { bool }) { var x bool\n  peek(c, x) }\n"
            "init { c: channel { bool }, p: P(c) }"
        )
        with pytest.raises(TypeCheckError) as err:
            check(source)
        assert "buffered" in str(err.value)

    def test_cross_enum_comparison_rejected(self):
        source = (
            "data V { A }\ndata W { B }\n"
            "proc P() { var x V\n  var y W\n  if x == y { x = A } }\n"
            "init { p: P() }"
        )
        with pytest.raises(TypeCheckError):
            check(source)

    def test_non_bool_condition_rejected(self):
        source = (
            "data V { A }\n"
            "proc P() { var x V\n  if x { x = A } }\n"
            "init { p: P() }"
        )
        with pytest.raises(TypeCheckError):
            check(source)

    def test_for_over_non_array_rejected(self):
        source = (
            "proc P(c channel { bool }) { for x in c { send(x, true) } }\n"
            "init { c: channel { bool }, p: P(c) }"
        )
        with pytest.raises(TypeCheckError):
            check(source)

    def test_assignment_to_parameter_rejected(self):
        source = "proc P(flag bool) { flag = true }\ninit { p: P(true) }"
        with pytest.raises(TypeCheckError):
            check(source)

    def test_unknown_template_rejected(self):
        with pytest.raises(NameResolutionError):
            check("init { p: Ghost() }")

    def test_duplicate_instance_names_rejected(self):
        with pytest.raises(NameResolutionError):
            check("init { c: channel { bool }, c: channel { bool } }")

    def test_argument_arity_checked(self):
        source = "proc P(c channel { bool }) { send(c, true) }\ninit { p: P() }"
        with pytest.raises(ArityError):
            check(source)

    def test_channel_kind_must_match_parameter(self):
        source = (
            "proc P(c channel { bool }) { send(c, true) }\n"
            "init { b: channel [2] { bool }, p: P(b) }"
        )
        with pytest.raises(TypeCheckError):
            check(source)

    def test_duplicate_constructor_across_enums_rejected(self):
        with pytest.raises(NameResolutionError):
            check("data V { A }\ndata W { A }\ninit {}")

    def test_shadowed_redeclaration_in_same_scope_rejected(self):
        source = "proc P() { var x bool\n  var x bool }\ninit { p: P() }"
        with pytest.raises(NameResolutionError):
            check(source)


def test_sibling_arrays_may_have_different_lengths():
    """Array arguments are independent; no lock-step length check."""
    source = (
        "proc P(xs []channel { bool }, ys []channel { bool }) {\n"
        "  for x in xs { send(x, true) }\n"
        "  for y in ys { send(y, true) }\n"
        "}\n"
        "init { a: channel { bool }, b: channel { bool }, c: channel { bool },\n"
        "  p: P([a], [b, c]) }"
    )
    instance = build_instance(source)
    assert instance.processes[0].args == {"xs": (0,), "ys": (1, 2)}


def test_value_parameters_substituted():
    source = (
        "data V { A, B }\n"
        "proc P(c channel { V }, what V, go bool) {\n"
        "  if go { send(c, what) }\n"
        "}\n"
        "init { c: channel { V }, p: P(c, B, true) }"
    )
    instance = build_instance(source)
    assert instance.processes[0].args == {"c": 0, "what": "B", "go": True}


def test_value_parameter_wrong_type_rejected():
    source = (
        "data V { A, B }\n"
        "proc P(go bool) { var x bool\n  x = go }\n"
        "init { p: P(B) }"
    )
    with pytest.raises(TypeCheckError):
        check(source)


def test_nested_scopes_may_shadow():
    source = (
        "proc P() {\n"
        "  var x bool\n"
        "  if x {\n"
        "    var x bool\n"
        "    x = true\n"
        "  }\n"
        "}\n"
        "init { p: P() }"
    )
    checked = check(source)
    info = checked.templates["P"]
    assert [s.name for s in info.slots] == ["x", "x_2"]
    assert info.body_level == {"x": 0}  # ltl sees the proc-level one


_RESOLVED_NODES = (syntax.Name, syntax.VarDecl, syntax.Assign, syntax.Recv, syntax.RecvExpr)


def _resolved_node_ids(node, out):
    """Ids of the Name, VarDecl, Assign, Recv and RecvExpr nodes under `node`."""
    if isinstance(node, tuple):
        for item in node:
            _resolved_node_ids(item, out)
    elif hasattr(node, "__record_fields__"):
        if isinstance(node, _RESOLVED_NODES):
            out.add(id(node))
        for field in node.__record_fields__:
            _resolved_node_ids(getattr(node, field), out)
    return out


def test_resolved_holds_exactly_the_nodes_lowering_reads():
    """One table, `resolved`, holds an entry for every body node that
    lowering looks up, and nothing else."""
    golden = sorted((Path(__file__).parent / "golden").glob("*.sandal"))
    sources = [corpus_source(name) for name in MODEL_NAMES]
    sources += [path.read_text() for path in golden]
    sources += [
        job_source(n, mix, kind) for n in (1, 2, 3) for mix in FAULT_MIXES for kind in SPEC_KINDS
    ]
    n_templates = 0
    for source in sources:
        for info in check(source).templates.values():
            body = _resolved_node_ids(info.template.body, set())
            assert set(info.resolved) == body, info.template.name
            n_templates += 1
    assert (len(sources), n_templates) == (69, 138)


# ---------------------------------------------------------------------------
# Init-block and ltl diagnostics: class, message and line:col


DIAG_HEAD = (
    "data V { A, B }\ndata W { C }\n"
    "proc P(c channel { V }, cs []channel { V }, v V) {\n  var x V\n  var ok bool\n}\n"
)
DIAG_INIT = "init { c: channel { V }, b: channel [2] { V }, p: P(c, [c], A) }\n"

DIAGNOSTICS = [
    ("dup", "init { c: channel { V },\n  c: channel { V } }\n",
     NameResolutionError, "8:3", "duplicate instance name 'c'"),
    ("ghost", "init { p: Ghost() }\n",
     NameResolutionError, "7:8", "unknown process template 'Ghost'"),
    ("arity", "init { c: channel { V }, p: P(c) }\n",
     ArityError, "7:26", "'P' takes 3 arguments, got 1"),
    ("chan_lit", "init { c: channel { V }, p: P(true, [c], A) }\n",
     TypeCheckError, "7:31", "expected the name of a declared channel"),
    ("chan_undeclared", "init { c: channel { V }, p: P(d, [c], A) }\n",
     TypeCheckError, "7:31", "expected the name of a declared channel"),
    ("chan_proc", "init { c: channel { V }, p: P(c, [c], A), q: P(p, [c], A) }\n",
     TypeCheckError, "7:48", "expected the name of a declared channel"),
    ("chan_type", "init { c: channel { V }, b: channel [2] { V }, p: P(b, [c], A) }\n",
     TypeCheckError, "7:53", "channel 'b' has type channel [2] { V }, parameter needs channel { V }"),
    ("array_nonarray", "init { c: channel { V }, p: P(c, c, A) }\n",
     TypeCheckError, "7:34", "expected an array literal of channel names"),
    ("array_elem", "init { c: channel { V }, p: P(c, [c, z], A) }\n",
     TypeCheckError, "7:38", "expected the name of a declared channel"),
    ("array_elem_type", "init { c: channel { V }, b: channel [2] { V }, p: P(c, [c, b], A) }\n",
     TypeCheckError, "7:60", "channel 'b' has type channel [2] { V }, parameter needs channel { V }"),
    ("value_type", "init { c: channel { V }, p: P(c, [c], true) }\n",
     TypeCheckError, "7:39", "argument has type bool, parameter needs V"),
    ("value_enum_type", "init { c: channel { V }, p: P(c, [c], C) }\n",
     TypeCheckError, "7:39", "argument has type W, parameter needs V"),
    ("value_channel", "init { c: channel { V }, p: P(c, [c], c) }\n",
     TypeCheckError, "7:39", "value arguments must be literals or enum constructors"),
    ("value_expr", "init { c: channel { V }, p: P(c, [c], !true) }\n",
     TypeCheckError, "7:39", "value arguments must be literals or enum constructors"),
    ("value_array", "init { c: channel { V }, p: P(c, [c], [A]) }\n",
     TypeCheckError, "7:39", "value arguments must be literals or enum constructors"),
    ("chan_unknown_type", "init { c: channel { Nope } }\n",
     NameResolutionError, "7:21", "unknown type 'Nope'"),
    ("ltl_not_bool", DIAG_INIT + "ltl { p.x }\n",
     TypeCheckError, "8:1", "ltl formula must be bool, got V"),
    ("ltl_unknown_instance", DIAG_INIT + "ltl { G (q.x == A) }\n",
     NameResolutionError, "8:10", "ltl atom references unknown process instance 'q'"),
    ("ltl_channel_instance", DIAG_INIT + "ltl { G (c.x == A) }\n",
     NameResolutionError, "8:10", "ltl atom references unknown process instance 'c'"),
    ("ltl_no_variable", DIAG_INIT + "ltl { G (p.y) }\n",
     NameResolutionError, "8:10", "process 'p' has no top-level variable 'y'"),
    ("ltl_unknown_name", DIAG_INIT + "ltl { G (zz) }\n",
     NameResolutionError, "8:10", "ltl atoms must be instance-qualified variables or constants; unknown name 'zz'"),
    ("ltl_G_non_bool", DIAG_INIT + "ltl { G (p.x) }\n",
     TypeCheckError, "8:7", "'G' needs a bool formula, got V"),
    ("ltl_F_non_bool", DIAG_INIT + "ltl { F p.x }\n",
     TypeCheckError, "8:7", "'F' needs a bool formula, got V"),
    ("ltl_not_non_bool", DIAG_INIT + "ltl { G !p.x }\n",
     TypeCheckError, "8:9", "'!' needs a bool operand, got V"),
    ("ltl_and_non_bool", DIAG_INIT + "ltl { G (p.ok && p.x) }\n",
     TypeCheckError, "8:15", "'&&' needs bool operands, got bool and V"),
    ("ltl_cross_enum", DIAG_INIT + "ltl { G (p.x == C) }\n",
     TypeCheckError, "8:14", "cannot compare V with W"),
    ("ltl_bool_enum", DIAG_INIT + "ltl { G (p.ok != A) }\n",
     TypeCheckError, "8:15", "cannot compare bool with V"),
]


@pytest.mark.parametrize(
    "tail, cls, pos, message", [row[1:] for row in DIAGNOSTICS], ids=[row[0] for row in DIAGNOSTICS]
)
def test_init_and_ltl_diagnostics(tail, cls, pos, message):
    with pytest.raises(SandalError) as err:
        check(DIAG_HEAD + tail)
    assert type(err.value) is cls
    assert str(err.value.pos) == pos
    assert err.value.message == message


def in_body(stmt):
    """A model whose one template runs `stmt` after declaring `x V`."""
    return (
        "data V { A, B }\n"
        "proc P(c channel { V }, q channel [2] { V }, v V) {\n  var x V\n"
        f"  {stmt}\n}}\n"
        "init { c: channel { V }, q: channel [2] { V }, p: P(c, q, A) }\n"
    )


DECLARATION_DIAGNOSTICS = [
    ("data_no_ctors", "data V { }\ninit {}\n",
     ParseError, "1:6", "data type 'V' declares no constructors"),
    ("dup_param", "proc P(a bool, a bool) { }\ninit {}\n",
     ParseError, "1:16", "duplicate parameter name 'a'"),
    ("dup_marker", "data V { A, B }\ninit { c: channel { V } @drop @drop }\n",
     ParseError, "2:31", "duplicate fault marker '@drop'"),
    ("missing_comma", "proc P(a bool b bool) { }\ninit {}\n",
     ParseError, "1:15", "expected ',' or ')', found 'b'"),
    ("not_a_type", "proc P(a true) { }\ninit {}\n",
     ParseError, "1:10", "expected a type, found 'true'"),
    ("empty_payload", "init { c: channel { } }\n",
     ParseError, "1:11", "channel type has an empty payload list"),
    ("channel_payload", "init { c: channel { channel { bool } } }\n",
     ParseError, "1:21", "channel payloads must be value types"),
    ("send_no_value", in_body("send(c)"),
     ParseError, "4:3", "send needs at least one value after the channel"),
    ("recv_no_target", in_body("recv(c)"),
     ParseError, "4:3", "recv needs at least one target variable"),
    ("peek_no_target", in_body("peek(q)"),
     ParseError, "4:3", "peek needs at least one target variable"),
    ("timeout_recv_no_target", in_body("var ok bool = timeout_recv(c)"),
     ParseError, "4:17", "timeout_recv needs at least one target variable"),
    ("unknown_name", in_body("x = y"),
     NameResolutionError, "4:7", "unknown name 'y'"),
    ("init_type", in_body("var ok bool = A"),
     TypeCheckError, "4:3", "initializer has type V, variable is bool"),
    ("assign_type", in_body("x = true"),
     TypeCheckError, "4:3", "cannot assign bool to 'x' of type V"),
    ("send_arity", in_body("send(c, A, B)"),
     ArityError, "4:3", "send carries 2 values, channel payload has 1"),
    ("channel_as_value", in_body("x = c"),
     TypeCheckError, "4:7", "expected a value, got channel { V }"),
    ("value_as_channel", in_body("send(v, A)"),
     TypeCheckError, "4:8", "expected a channel, got V"),
    ("dup_data", "data V { A, B }\ndata V { C }\ninit {}\n",
     NameResolutionError, "2:1", "duplicate data type 'V'"),
    ("dup_template", "proc P() { }\nproc P() { }\ninit {}\n",
     NameResolutionError, "2:1", "duplicate process template 'P'"),
    ("channel_eq", in_body("c == c"),
     TypeCheckError, "4:5", "cannot compare values of type channel { V }"),
    ("var_channel", in_body("var d channel { V }"),
     TypeCheckError, "4:9", "expected a value type (bool or a data type)"),
]


@pytest.mark.parametrize(
    "source, cls, pos, message",
    [row[1:] for row in DECLARATION_DIAGNOSTICS],
    ids=[row[0] for row in DECLARATION_DIAGNOSTICS],
)
def test_declaration_and_statement_diagnostics(source, cls, pos, message):
    with pytest.raises(SandalError) as err:
        check(source)
    assert type(err.value) is cls
    assert str(err.value.pos) == pos
    assert err.value.message == message


def test_qualified_name_outside_ltl_rejected():
    with pytest.raises(TypeCheckError) as err:
        check("proc P() {\n  var y bool = q.z\n}\ninit {}\n")
    assert str(err.value.pos) == "2:16"
    assert err.value.message == "instance-qualified names are only valid in ltl specs"
