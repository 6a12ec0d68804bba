import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sandalc.checker as checker
import sandalc.ir as ir
from sandalc.checker import (
    Counterexample,
    GlobalState,
    ProcState,
    Result,
    RvState,
    StateLimitExceeded,
    Step,
    UnsupportedFormula,
    check_spec,
    eval_prop,
    extract_pattern,
    format_trace,
    initial_state,
    replay,
    successors,
)
from sandalc.corpus import MODEL_NAMES, corpus_source
from sandalc.pipeline import build_model
from sandalc.record import replace
from sandalc.sema import PAtom, PBin, PBool, PEnum, PNot, PTemporal, ResolvedSpec, zero_value

from oracles import build_graph, naive_verdict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from models import FAULT_MIXES, family_member, two_phase_commit  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"


def with_ltl(source: str, formula: str) -> str:
    """Swap the model's ltl block(s) for a single given formula."""
    base = source.split("ltl {")[0].rstrip()
    return f"{base}\nltl {{ {formula} }}\n"


def spec_of(pattern: str, prop) -> ResolvedSpec:
    """The spec that extract_pattern splits into (pattern, prop)."""
    for op in reversed(pattern):
        prop = PTemporal(op, prop)
    return ResolvedSpec(prop, pattern)


def checked(source, formula=None, max_states=1_000_000):
    if formula is not None:
        source = with_ltl(source, formula)
    built = build_model(source)
    spec = built.system.ltl_specs[0]
    return built, check_spec(built.woven, spec, max_states=max_states)


# ---------------------------------------------------------------------------
# initial_state / successors


def test_pingpong_initial_state():
    cs = build_model(corpus_source("pingpong")).woven
    state = initial_state(cs)
    assert all(p.loc == a.entry for p, a in zip(state.procs, cs.automata))
    assert state.procs[0].vars == (False,)
    assert state.chans == (RvState(False, False, None), RvState(False, False, None))


def test_empty_system_stutters():
    """With no process to step, the initial state is a deadlock, as in SMV."""
    cs = build_model("init {}").woven
    state = initial_state(cs)
    assert state.procs == () and state.chans == ()
    assert successors(cs, state) == [(None, checker.STUTTER_LABEL, state)]


def test_two_phase_commit_initial_resp_is_first_constructor():
    built = build_model(corpus_source("2pc_allfaults"))
    cs = built.woven
    state = initial_state(cs)
    formula = built.system.ltl_specs[0].formula
    atoms = {}

    def walk(p):
        if isinstance(p, PAtom):
            name = built.system.processes[p.proc].name
            atoms[(name, cs.automata[p.proc].locals[p.slot].name)] = p
        for name in getattr(p, "__record_fields__", {}):
            child = getattr(p, name)
            if hasattr(child, "__record_fields__"):
                walk(child)

    walk(formula)
    assert eval_prop(atoms[("worker1", "resp")], state) == "Ready"
    assert eval_prop(atoms[("arbiter", "determined")], state) is False


def test_all_shutdown_state_stutters():
    cs = build_model(corpus_source("2pc_shutdown")).woven
    state = initial_state(cs)
    crashed = GlobalState(
        procs=tuple(
            ProcState(loc=a.shutdown_loc, vars=p.vars)
            for a, p in zip(cs.automata, state.procs)
        ),
        chans=state.chans,
    )
    assert successors(cs, crashed) == [(None, "STUTTER", crashed)]


def test_reachable_state_count_pinned():
    cs = build_model(corpus_source("pingpong")).woven
    _, succ = build_graph(cs)
    assert len(succ) == 12


def test_successor_order_is_deterministic():
    cs = build_model(corpus_source("2pc_allfaults")).woven
    state = initial_state(cs)
    first = successors(cs, state)
    second = successors(cs, state)
    assert first == second
    procs = [p for p, _, _ in first]
    assert procs == sorted(procs)


# ---------------------------------------------------------------------------
# eval_prop


def test_eval_prop_boolean_operators():
    # true && (false -> x) where x is an unbound... use a constant instead
    p = PBin("&&", PBool(True), PBin("->", PBool(False), PBool(False)))
    empty = GlobalState(procs=(), chans=())
    assert eval_prop(p, empty) is True
    assert eval_prop(PNot(p), empty) is False


def test_eval_prop_enum_comparison():
    state = GlobalState(procs=(ProcState(0, ("Ready",)),), chans=())
    atom = PAtom(proc=0, slot=0)
    assert eval_prop(PBin("==", atom, PEnum("Ready")), state) is True
    assert eval_prop(PNot(PBin("==", atom, PEnum("Commit"))), state) is True


def test_eval_prop_every_node():
    """Atoms of a process other than the first, enum == and !=, ->, || and !."""
    state = GlobalState(
        procs=(ProcState(0, (False, "Ready")), ProcState(2, ("Abort", True))),
        chans=(),
    )
    resp = PAtom(proc=1, slot=0)
    done = PAtom(proc=1, slot=1)
    cases = [
        (resp, "Abort"),
        (done, True),
        (PBin("==", resp, PEnum("Abort")), True),
        (PBin("==", resp, PEnum("Ready")), False),
        (PBin("!=", resp, PEnum("Ready")), True),
        (PBin("!=", resp, PEnum("Abort")), False),
        (PBin("->", done, PBool(False)), False),
        (PBin("->", PBool(False), PNot(done)), True),
        (PBin("->", done, done), True),
        (PBin("||", PBool(False), done), True),
        (PBin("||", PNot(done), PBool(False)), False),
        (PNot(done), False),
        (PNot(PBin("==", resp, PEnum("Ready"))), True),
    ]
    for prop, expected in cases:
        assert eval_prop(prop, state) == expected, prop


@pytest.mark.parametrize("op", ["&&", "||", "->"])
def test_eval_prop_skips_a_right_operand_the_left_decides(op):
    """The right operand reads a process the state lacks, so evaluating it
    raises IndexError; it is evaluated only when the left does not decide."""
    empty = GlobalState(procs=(), chans=())
    missing = PAtom(proc=3, slot=0)
    decided = PBin(op, PBool(op == "||"), missing)
    assert eval_prop(decided, empty) is (op != "&&")
    with pytest.raises(IndexError):
        eval_prop(PBin(op, PBool(op != "||"), missing), empty)


def test_a_guard_skips_a_right_operand_the_left_decides():
    """A rendezvous receive guard extended with a test of the channel's
    buffer is false, without indexing the empty (None) buffer, while no
    sender stands ready."""
    cs = build_model(corpus_source("pingpong")).woven
    receiver = cs.automata[1]
    recv = next(t for t in receiver.transitions if t.kind == "recv")
    chan = recv.actions[-1].chan
    reads_buffer = PBin("==", ir.EChanBufItem(chan, 0), PBool(True))
    probe = replace(recv, guard=PBin("&&", recv.guard, reads_buffer))
    transitions = tuple(probe if t is recv else t for t in receiver.transitions)
    probed = replace(cs, automata=(cs.automata[0], replace(receiver, transitions=transitions)))
    init = initial_state(cs)
    receiving = ProcState(recv.src, init.procs[1].vars)
    state = GlobalState(procs=(init.procs[0], receiving), chans=init.chans)
    assert state.chans[chan].buf is None
    assert [label for _, label, _ in successors(probed, state)] == [
        label for _, label, _ in successors(cs, state)
    ]
    assert recv.label not in [label for _, label, _ in successors(cs, state)]


def test_eval_prop_rejects_temporal_operators():
    empty = GlobalState(procs=(), chans=())
    for prop in (
        PTemporal("G", PBool(True)),
        PNot(PTemporal("F", PBool(False))),
        PBin("||", PBool(False), PTemporal("G", PBool(True))),
    ):
        with pytest.raises(UnsupportedFormula):
            eval_prop(prop, empty)


def _reference_eval(p, procs):
    """Propositions by plain recursion, to compare eval_prop with."""
    if isinstance(p, PBool):
        return p.value
    if isinstance(p, PEnum):
        return p.ctor
    if isinstance(p, PAtom):
        return procs[p.proc].vars[p.slot]
    if isinstance(p, PNot):
        return not _reference_eval(p.sub, procs)
    left, right = _reference_eval(p.left, procs), lambda: _reference_eval(p.right, procs)
    if p.op == "&&":
        return left and right()
    if p.op == "||":
        return left or right()
    if p.op == "->":
        return (not left) or right()
    return left == right() if p.op == "==" else left != right()


_PROPS_STATE = GlobalState(
    procs=(ProcState(0, (False, "Ready")), ProcState(1, (True, "Commit"))), chans=()
)
_LEAVES = st.sampled_from(
    [PBool(False), PBool(True), PEnum("Ready"), PEnum("Commit")]
    + [PAtom(proc, slot) for proc in (0, 1) for slot in (0, 1)]
)
_OPS = ["&&", "||", "->", "==", "!="]


@st.composite
def _props(draw, max_depth=256):
    """A small random tree under a random spine of `!` and binary nodes,
    at most max_depth levels deep in all."""
    small = st.recursive(
        _LEAVES, lambda sub: st.builds(PBin, st.sampled_from(_OPS), sub, sub), max_leaves=4
    )
    tree = draw(small)
    for _ in range(draw(st.integers(0, max_depth - 4))):
        op = draw(st.sampled_from(_OPS + ["!"]))
        if op == "!":
            tree = PNot(tree)
        else:
            other = draw(_LEAVES)
            tree = PBin(op, tree, other) if draw(st.booleans()) else PBin(op, other, tree)
    return tree


def _chain(depth: int):
    """A left-leaning chain of every binary operator and `!`, depth levels deep."""
    tree = PAtom(1, 1)
    for k in range(depth - 1):
        op = (_OPS + ["!"])[k % 6]
        tree = PNot(tree) if op == "!" else PBin(op, tree, PEnum("Commit"))
    return tree


@settings(database=None, deadline=None, derandomize=True, max_examples=150)
@given(_props())
@example(_chain(256))
def test_eval_prop_agrees_with_a_reference_evaluator(prop):
    expected = _reference_eval(prop, _PROPS_STATE.procs)
    actual = eval_prop(prop, _PROPS_STATE)
    assert (type(actual), actual) == (type(expected), expected)


# ---------------------------------------------------------------------------
# Pattern extraction


def test_extract_pattern_shapes():
    p = PBool(True)
    assert extract_pattern(PTemporal("G", p)) == ("G", p)
    assert extract_pattern(PTemporal("F", p)) == ("F", p)
    assert extract_pattern(PTemporal("F", PTemporal("G", p))) == ("FG", p)
    assert extract_pattern(PTemporal("G", PTemporal("F", p))) == ("GF", p)
    assert extract_pattern(PTemporal("G", PTemporal("G", p))) == ("G", p)
    assert extract_pattern(PTemporal("F", PTemporal("F", p))) == ("F", p)


def test_extract_pattern_rejects_unsupported():
    p = PBool(True)
    with pytest.raises(UnsupportedFormula):
        extract_pattern(p)  # bare propositional
    with pytest.raises(UnsupportedFormula):
        extract_pattern(PTemporal("G", PTemporal("F", PTemporal("G", p))))
    with pytest.raises(UnsupportedFormula):
        extract_pattern(PBin("&&", PTemporal("G", p), PBool(True)))


# ---------------------------------------------------------------------------
# Safety


def test_g_true_passes_everywhere(builds):
    for built in builds.values():
        verdict = check_spec(built.woven, spec_of("G", PBool(True)))
        assert verdict.result is Result.PASS


def test_commit_reachable_in_nofault_model():
    """2PC commits when both workers answer Ready."""
    built, verdict = checked(
        corpus_source("2pc_nofault"), "G (!(worker1.resp == Commit))"
    )
    assert verdict.result is Result.FAIL
    cex = verdict.counterexample
    assert cex.loop is None
    replay(built.woven, cex)
    # the final state of the trace actually shows the Commit
    final = cex.prefix[-1].state
    worker1 = built.system.processes[1]
    info = built.system.template_info(worker1)
    assert final.procs[1].vars[info.body_level["resp"]] == "Commit"


def test_safety_counterexample_is_shortest():
    built, verdict = checked(corpus_source("2pc_nofault"), "G (!arbiter.determined)")
    assert verdict.result is Result.FAIL
    # determined flips after: 2 proposals (2x2 handshake steps with worker
    # receives) ... just confirm BFS minimality by re-searching by hand
    cs = built.woven
    prop = built.system.ltl_specs[0]
    init = initial_state(cs)
    depth = {init: 0}
    frontier = deque([init])
    best = None
    while frontier and best is None:
        s = frontier.popleft()
        for _, _, nxt in successors(cs, s):
            if nxt in depth:
                continue
            depth[nxt] = depth[s] + 1
            pat, p = extract_pattern(prop.formula)
            if not eval_prop(p, nxt):
                best = depth[nxt]
                break
            frontier.append(nxt)
    assert len(verdict.counterexample.prefix) == best


@pytest.mark.parametrize("formula", ["G (true)", "G (F (true))", "F (G (true))"])
def test_states_explored_counts_discovered_states(formula):
    """Each pattern that must search the whole graph reports every reachable state."""
    _, verdict = checked(corpus_source("2pc_allfaults"), formula)
    assert verdict.passed
    assert verdict.states_explored == 6_680


def test_a_proposition_without_atoms_is_read_once(monkeypatch):
    """`G (true)` searches every state yet reads p once; `G (false)` fails
    at the initial state, before any successor is counted; `F (false)`
    reads p once on its way to a deadlock."""
    calls = []
    negation = checker._Collapsed.negation

    def counted(space):
        notp = negation(space)
        return lambda key: calls.append(key) or notp(key)

    monkeypatch.setattr(checker._Collapsed, "negation", counted)
    _, holds = checked(corpus_source("2pc_allfaults"), "G (true)")
    assert (holds.passed, holds.states_explored, len(calls)) == (True, 6_680, 1)
    _, fails = checked(corpus_source("2pc_allfaults"), "G (false)")
    assert (fails.passed, fails.states_explored) == (False, 1)
    assert fails.counterexample.prefix == () and fails.counterexample.loop is None
    calls.clear()
    _, never = checked(corpus_source("2pc_allfaults"), "F (false)")
    assert (never.passed, len(calls)) == (False, 1)
    assert never.counterexample.loop is not None


COLLAPSE_MODELS = {
    **{f"corpus/{name}": corpus_source(name) for name in MODEL_NAMES},
    **{f"golden/{name}": (GOLDEN / name).read_text() for name in ("conditions.sandal", "faults.sandal")},
    **{f"n1-{mix}": family_member(1, mix) for mix in FAULT_MIXES},
}


@pytest.mark.parametrize("name", COLLAPSE_MODELS)
def test_collapsed_expansion_equals_successors(name):
    """The search's moves, memoized per process on its local view, reach the
    states of `successors`, in its order, from every reachable state; a
    deadlock has no successor key, where `successors` stutters."""
    cs = build_model(COLLAPSE_MODELS[name]).woven
    _, graph = build_graph(cs)
    space = checker._Collapsed(cs, PBool(True))
    for state, succs in graph.items():
        key = space.encode(state)
        assert space.decode(key) == state
        expanded = [space.decode(nxt) for nxt in space.successor_keys(key)]
        assert expanded == [nxt for i, _, nxt in succs if i is not None]
    assert check_spec(cs, spec_of("G", PBool(True))).states_explored == len(graph)


def _props_over_locals(cs):
    """Propositions comparing locals with their initial values: one reading
    two slots of one process, one reading a slot of every process that has
    locals, and `true`, which reads none."""

    def at_zero(proc, slot):
        value = zero_value(cs.automata[proc].locals[slot].type)
        zero = PBool(value) if isinstance(value, bool) else PEnum(value)
        return PBin("==", PAtom(proc, slot), zero)

    props = [PBool(True)]
    owners = [i for i, a in enumerate(cs.automata) if a.locals]
    pairs = [i for i in owners if len(cs.automata[i].locals) >= 2]
    if pairs:
        props.append(PBin("->", at_zero(pairs[0], 0), PNot(at_zero(pairs[0], 1))))
    if len(owners) >= 2:
        several = at_zero(owners[0], 0)
        for i in owners[1:]:
            several = PBin("||", several, at_zero(i, len(cs.automata[i].locals) - 1))
        props.append(several)
    return props


@pytest.mark.parametrize("name", COLLAPSE_MODELS)
def test_proposition_memo_runs_once_per_atom_valuation(name, monkeypatch):
    """The search's `notp` is memoized on the values the atoms read: on every
    reachable state it is `not eval_prop`, and `eval_prop` runs at most once
    per distinct valuation of the atoms."""
    cs = build_model(COLLAPSE_MODELS[name]).woven
    init, graph = build_graph(cs)
    calls = []
    monkeypatch.setattr(checker, "eval_prop", lambda p, s: calls.append(s) or eval_prop(p, s))
    for prop in _props_over_locals(cs):
        calls.clear()
        space = checker._Collapsed(cs, prop)
        notp = space.negation()
        atoms = sorted(checker._atoms(prop))
        valuations = set()
        for state in graph:
            assert notp(space.encode(state)) == (not eval_prop(prop, state)), (prop, state)
            valuations.add(tuple(state.procs[i].vars[slot] for i, slot in atoms))
        assert len(calls) <= len(valuations)
        assert len(atoms) >= 2 or prop == PBool(True)


@pytest.mark.parametrize("name", [n for n in COLLAPSE_MODELS if not n.startswith("golden/")])
def test_class_fields_tell_apart_exactly_the_atom_valuations(name):
    """On every key the search reaches, the class fields above `top` are
    equal for two keys exactly when their atom records have equal
    valuations, for a proposition reading atoms of two or more processes."""
    cs = build_model(COLLAPSE_MODELS[name]).woven
    prop = _props_over_locals(cs)[-1]
    atoms = sorted(checker._atoms(prop))
    assert len({i for i, _ in atoms}) >= 2
    space = checker._Collapsed(cs, prop)
    init = space.encode(initial_state(cs))
    seen, frontier = {init}, deque([init])
    while frontier:
        for nxt in space.successor_keys(frontier.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    class_of = {}
    for key in seen:
        assert space.encode(space.decode(key)) == key
        state = space.decode(key)
        valuation = tuple(state.procs[i].vars[slot] for i, slot in atoms)
        assert class_of.setdefault(valuation, key >> space.top) == key >> space.top
    assert len(set(class_of.values())) == len(class_of) > 1


def _plain_search(graph, pattern, prop):
    """The verdict and state count of `check_spec` by a plain BFS over the
    `successors` graph: G fails at the first !p state expanded; F at the
    first deadlock expanded, keeping !p states only; FG and GF at the first
    deadlocked !p state expanded."""
    init, succ = graph
    notp = lambda s: not eval_prop(prop, s)
    inside = notp if pattern == "F" else (lambda s: True)
    seen = {init}
    frontier = deque([init] if inside(init) else ())
    while frontier:
        state = frontier.popleft()
        deadlock = succ[state] == ((None, "STUTTER", state),)
        if notp(state) if pattern == "G" else deadlock and (pattern == "F" or notp(state)):
            return False, len(seen)
        for _, _, nxt in succ[state]:
            if nxt not in seen and inside(nxt):
                seen.add(nxt)
                frontier.append(nxt)
    return True, len(seen)


@pytest.mark.parametrize("name", COLLAPSE_MODELS)
def test_search_agrees_with_a_plain_bfs_over_successors(name):
    """The search's inline expansion over packed keys gives the verdict and
    `states_explored` of a plain BFS over `successors`, for every pattern;
    `F true` holds at the initial state and passes with 1 state."""
    cs = build_model(COLLAPSE_MODELS[name]).woven
    graph = build_graph(cs)
    for prop in _props_over_locals(cs):
        for pattern in ("G", "F", "FG", "GF"):
            verdict = check_spec(cs, spec_of(pattern, prop))
            expected = _plain_search(graph, pattern, prop)
            assert (verdict.passed, verdict.states_explored) == expected, (pattern, prop)
    at_init = check_spec(cs, spec_of("F", PBool(True)))
    assert (at_init.passed, at_init.states_explored) == (True, 1)


def test_shared_successor_step_is_the_first_in_successor_order():
    """Both branches of the choice reach one state; the counterexample passes
    through it by the first branch, as `successors` lists them."""
    source = (
        "proc P() {\n"
        "  var x bool\n"
        "  choice { x = true }, { x = true }\n"
        "  var y bool = true\n"
        "}\n"
        "init { p : P() }\n"
    )
    built, verdict = checked(source, "G (!p.y)")
    cs, cex = built.woven, verdict.counterexample
    assert verdict.result is Result.FAIL
    before, shared = cex.prefix[0].state, cex.prefix[1].state
    branches = [label for _, label, nxt in successors(cs, before) if nxt == shared]
    assert len(branches) == 2
    assert cex.prefix[1].label == branches[0]
    assert [step.label for step in cex.prefix] == [
        "var x @2:3 [var]",
        "x = true @3:12 [assign]",
        "var y = true @4:3 [var]",
    ]
    replay(cs, cex)


def test_a_later_write_to_the_same_slot_wins():
    """`recv(c, x, x)` of `(true, false)` writes x twice, and
    `y = nonblock_recv(d, y)` of `false` writes y with the payload, then with
    the result: every run ends with the later writes, x false and y true, in
    `successors` and in the search."""
    built = build_model((GOLDEN / "writes.sandal").read_text())
    cs = built.woven
    r = next(i for i, p in enumerate(cs.instance.processes) if p.name == "r")
    _, graph = build_graph(cs)
    ends = [s for s, succs in graph.items() if succs[0][0] is None]
    assert ends and all(s.procs[r].vars == (False, True) for s in ends)
    ends_well, y_stays_false = (check_spec(cs, spec) for spec in built.system.ltl_specs)
    assert ends_well.passed
    assert not y_stays_false.passed
    assert y_stays_false.counterexample.prefix[-1].state.procs[r].vars == (False, True)


@pytest.mark.parametrize("formula", ["G (false)", "F (false)", "F (G (false))", "G (F (false))"])
@pytest.mark.parametrize(
    "source", ["init {}", "init { c: channel { bool } }"], ids=["no_channel", "one_channel"]
)
def test_system_without_processes_stutters_in_its_initial_state(source, formula):
    """No process can step, so the one run stutters forever in the initial
    state, and every pattern of `false` fails on it, as in the emitted SMV."""
    _, verdict = checked(source, formula)
    assert verdict.result is Result.FAIL
    assert verdict.states_explored == 1


def test_cyclic_automaton_is_rejected():
    """A back edge would add product cycles the searches cannot see.  A
    self-loop (src == dst) is the boundary of the forward-edge check."""
    built = build_model(corpus_source("2pc_nofault"))
    spec = built.system.ltl_specs[0]
    for cs in (built.unwoven, built.woven):
        worker = cs.automata[1]
        last = worker.transitions[-1]
        for bad in (
            replace(last, src=last.dst, dst=worker.entry),
            replace(last, src=last.dst, dst=last.dst),
        ):
            cyclic = replace(worker, transitions=worker.transitions + (bad,))
            broken = replace(cs, automata=(cs.automata[0], cyclic) + cs.automata[2:])
            with pytest.raises(ValueError, match=r"process worker1: transition .* cycle"):
                check_spec(broken, spec)


def test_state_limit_exceeded():
    built = build_model(corpus_source("2pc_allfaults"))
    spec = built.system.ltl_specs[0]
    with pytest.raises(StateLimitExceeded):
        check_spec(built.woven, spec, max_states=50)


def test_a_record_id_past_its_key_field_is_out_of_memory(monkeypatch):
    """A record id that would not fit its key field raises MemoryError with
    the states found so far, rather than spill into the next field; with
    2-bit fields, the fifth record of any process or channel is one too
    many."""
    monkeypatch.setattr(checker, "FIELD", 3)
    built = build_model(corpus_source("2pc_nofault"))
    with pytest.raises(MemoryError) as exc:
        check_spec(built.woven, spec_of("G", PBool(True)))
    assert 0 < exc.value.states < 233


# ---------------------------------------------------------------------------
# Liveness


def test_f_false_yields_stutter_lasso():
    built = build_model("proc P() {  }\ninit { p: P() }")
    verdict = check_spec(built.woven, spec_of("F", PBool(False)))
    assert verdict.result is Result.FAIL
    cex = verdict.counterexample
    assert cex.loop is not None
    assert [s.label for s in cex.loop] == ["STUTTER"]
    replay(built.woven, cex)


def test_shutdown_counterexample_shape():
    """The arbiter dies before deciding; the system stutters undetermined."""
    built = build_model(corpus_source("2pc_shutdown"))
    spec = built.system.ltl_specs[0]
    verdict = check_spec(built.woven, spec)
    assert verdict.result is Result.FAIL
    cex = verdict.counterexample
    assert all(step.label == "STUTTER" for step in cex.loop)
    loop_head = cex.prefix[-1].state if cex.prefix else cex.initial
    arbiter_info = built.system.template_info(built.system.processes[0])
    determined = loop_head.procs[0].vars[arbiter_info.body_level["determined"]]
    assert determined is False
    replay(built.woven, cex)


def _nearest_deadlock(graph, bad, through):
    """BFS distance from init, through `through` states, to a deadlocked `bad` state."""
    init, succ = graph
    depth = {init: 0} if through(init) else {}
    frontier = deque(depth)
    while frontier:
        state = frontier.popleft()
        if bad(state) and succ[state] == ((None, "STUTTER", state),):
            return depth[state]
        for _, _, nxt in succ[state]:
            if nxt not in depth and through(nxt):
                depth[nxt] = depth[state] + 1
                frontier.append(nxt)
    return None


@pytest.mark.parametrize("name", ["2pc_drop", "2pc_shutdown", "2pc_allfaults"])
def test_liveness_lasso_is_shortest(builds, name):
    """A liveness FAIL stutters at a nearest deadlock that refutes the spec."""
    built = builds[name]
    graph = build_graph(built.woven)
    _, prop = extract_pattern(built.system.ltl_specs[0].formula)
    notp = lambda s: not eval_prop(prop, s)
    anywhere = lambda s: True
    for pattern, through in (("F", notp), ("FG", anywhere), ("GF", anywhere)):
        cex = check_spec(built.woven, spec_of(pattern, prop)).counterexample
        assert len(cex.prefix) == _nearest_deadlock(graph, notp, through), pattern
        assert [step.label for step in cex.loop] == ["STUTTER"]
        replay(built.woven, cex)


def test_allfaults_lasso_is_three_crashes_and_a_stutter(builds):
    built = builds["2pc_allfaults"]
    cex = check_spec(built.woven, built.system.ltl_specs[0]).counterexample
    assert [step.label for step in cex.prefix] == ["shutdown [shutdown]"] * 3
    assert [step.label for step in cex.loop] == ["STUTTER"]


def test_liveness_monotone_under_weaving():
    """A safety FAIL on the unwoven system persists after weaving."""
    source = with_ltl(corpus_source("2pc_allfaults"), "G (!(worker1.resp == Commit))")
    built = build_model(source)
    spec = built.system.ltl_specs[0]
    unwoven_verdict = check_spec(built.unwoven, spec)
    woven_verdict = check_spec(built.woven, spec)
    assert unwoven_verdict.result is Result.FAIL
    assert woven_verdict.result is Result.FAIL


def test_naive_verdict_ignores_fairness(builds):
    """Every run ends stuttering where no process is enabled, so fairness is moot."""
    for name, built in builds.items():
        graph = build_graph(built.woven)
        for spec in built.system.ltl_specs:
            pattern, prop = extract_pattern(spec.formula)
            fair, unfair = (
                naive_verdict(built.woven, pattern, prop, fairness=f, graph=graph)
                for f in (True, False)
            )
            assert fair == unfair, (name, spec.text)


def test_liveness_agrees_with_naive_oracle_on_handpicked_specs(builds):
    built = builds["2pc_shutdown"]
    graph = build_graph(built.woven)
    cases = [
        ("FG", "F (G (arbiter.determined))"),
        ("GF", "G (F (arbiter.determined))"),
        ("F", "F (arbiter.determined)"),
        ("G", "G (!(worker1.resp == Commit))"),
    ]
    for pattern, formula in cases:
        source = with_ltl(corpus_source("2pc_shutdown"), formula)
        b = build_model(source)
        spec = b.system.ltl_specs[0]
        verdict = check_spec(b.woven, spec)
        got_pattern, prop = extract_pattern(spec.formula)
        assert got_pattern == pattern
        expected = naive_verdict(b.woven, pattern, prop, fairness=True, graph=graph)
        assert verdict.passed == expected, formula


def test_three_worker_generalization():
    """The verdict pattern is not an artifact of the two-worker corpus."""
    nofault = build_model(two_phase_commit(3))
    verdict = check_spec(nofault.woven, nofault.system.ltl_specs[0])
    assert verdict.result is Result.PASS

    dropped = build_model(two_phase_commit(3, drop=True))
    verdict = check_spec(dropped.woven, dropped.system.ltl_specs[0])
    assert verdict.result is Result.FAIL
    replay(dropped.woven, verdict.counterexample)


def test_verdicts_and_counterexamples_are_reproducible(builds):
    built = builds["2pc_allfaults"]
    spec = built.system.ltl_specs[0]
    first = check_spec(built.woven, spec)
    second = check_spec(built.woven, spec)
    assert first.result == second.result
    assert first.counterexample == second.counterexample


def test_corpus_specs_agree_with_naive_oracle(builds):
    """The bundled specs get the same verdict from search and full-graph analysis."""
    for name in ("2pc_nofault", "2pc_timeout", "2pc_drop", "2pc_shutdown", "2pc_allfaults"):
        built = builds[name]
        spec = built.system.ltl_specs[0]
        pattern, prop = extract_pattern(spec.formula)
        verdict = check_spec(built.woven, spec)
        for fairness in (True, False):
            expected = naive_verdict(built.woven, pattern, prop, fairness=fairness)
            assert verdict.passed == expected, (name, fairness)


# ---------------------------------------------------------------------------
# Replay and trace text


def test_replay_detects_forged_counterexamples():
    from sandalc.checker import ReplayError

    built = build_model(corpus_source("2pc_shutdown"))
    cex = check_spec(built.woven, built.system.ltl_specs[0]).counterexample
    dropped_step = Counterexample(cex.initial, cex.prefix[:-1], cex.loop)
    arbiter = cex.initial.procs[0]
    moved = arbiter._replace(loc=arbiter.loc + 1)
    changed_initial = cex.initial._replace(procs=(moved,) + cex.initial.procs[1:])
    other_initial = Counterexample(changed_initial, cex.prefix, cex.loop)

    # A G FAIL is a finite path; a loop of one real step from its last state
    # replays, but leaves that state, so it cannot close the lasso.
    drop = build_model(corpus_source("2pc_drop"))
    determined = PAtom(0, 0)
    path = check_spec(drop.woven, spec_of("G", PNot(determined))).counterexample
    assert path.prefix and path.loop is None
    last = path.prefix[-1].state
    proc, label, nxt = next(s for s in successors(drop.woven, last) if s[0] is not None)
    step = Step(proc, label, nxt)
    open_loop = Counterexample(path.initial, path.prefix, (step,))

    for cs, forged, message in (
        (built.woven, dropped_step, "cannot be replayed"),
        (built.woven, other_initial, "recorded initial state differs"),
        (drop.woven, open_loop, "loop does not close back on its head state"),
    ):
        with pytest.raises(ReplayError, match=message):
            replay(cs, forged)


def test_trace_format():
    built = build_model(corpus_source("2pc_shutdown"))
    spec = built.system.ltl_specs[0]
    verdict = check_spec(built.woven, spec)
    text = format_trace(built.woven, verdict.counterexample)
    assert text.startswith("counterexample:")
    assert "#1 " in text
    assert "LOOP back to step #" in text
    # changed-variable diff lines are indented
    assert any(line.startswith("    ") for line in text.splitlines())
