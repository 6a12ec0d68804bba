import sys
from pathlib import Path

import pytest

from sandalc.checker import (
    RvState,
    initial_state,
    successor_transitions,
    successors,
)
from sandalc.corpus import corpus_source
from sandalc.ir import dump_automaton
from sandalc.pipeline import build_model
from sandalc.smv import emit_smv
from oracles import build_graph, earliest_edge_order

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from models import FAULT_MIXES, family_member  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"


def compiled(source):
    return build_model(source).unwoven


def take(cs, state, proc, kind):
    """Fire the unique enabled transition of `proc` with the given kind."""
    matches = [
        (i, t, nxt)
        for i, t, nxt in successor_transitions(cs, state)
        if i == proc and t.kind == kind
    ]
    assert len(matches) == 1, f"expected one {kind} step, got {matches}"
    return matches[0][2]


def reachable_states(cs):
    _, succ = build_graph(cs)
    return list(succ)


# ---------------------------------------------------------------------------
# Lowering shapes


def test_starter_is_linear_with_handshake_midpoint():
    cs = compiled(corpus_source("pingpong"))
    starter = cs.automata[0]
    # var; send (two steps); recv — a straight line through 5 locations
    assert starter.n_locations == 5
    assert [t.kind for t in starter.transitions] == [
        "var", "send.fire", "send.done", "recv",
    ]
    assert starter.entry == 0
    assert starter.terminal == 4
    srcs = [t.src for t in starter.transitions]
    dsts = [t.dst for t in starter.transitions]
    assert srcs == [0, 1, 2, 3] and dsts == [1, 2, 3, 4]


# Each join: a construct between `var x` and `var d`, the kinds of its forking
# edges, and the kinds of the edges that end its branches.
JOINS = {
    "if_else": ("if c { x = true } else { x = false }", {"if.then", "if.else"}, {"assign"}),
    # The untaken edge ends where the then-block ends.
    "if_without_else": ("if c { x = true }", {"if.then", "if.else"}, {"assign", "if.else"}),
    "choice": ("choice { x = true }, { x = false }, { x = c }", {"assign"}, {"assign"}),
    "nonblock_recv": (
        "if nonblock_recv(ch, c) { x = true } else { x = false }",
        {"nonblock.ok", "nonblock.fail"},
        {"assign"},
    ),
}


@pytest.mark.parametrize("case", sorted(JOINS))
def test_if_branches_merge_at_exit(case):
    construct, fork_kinds, end_kinds = JOINS[case]
    source = (
        "proc P(ch channel [1] { bool }) {\n"
        "  var c bool\n"
        "  var x bool\n"
        f"  {construct}\n"
        "  var d bool\n"
        "}\n"
        "init { ch: channel [1] { bool }, p: P(ch) }"
    )
    automaton = compiled(source).automata[0]
    forks = [t for t in automaton.transitions if t.kind in fork_kinds]
    ends = [t for t in automaton.transitions if t.kind in end_kinds]
    assert len(forks) == len(ends) >= 2
    assert len({t.src for t in forks}) == 1  # one fork location
    (join,) = {t.dst for t in ends}  # merged into one exit
    assert [t.desc for t in automaton.transitions if t.src == join] == ["var d"]


def test_empty_body_gets_noop_transition():
    automaton = compiled("proc P() {  }\ninit { p: P() }").automata[0]
    assert automaton.entry != automaton.terminal
    assert [t.kind for t in automaton.transitions] == ["noop"]


def test_for_unrolls_in_binding_order():
    cs = compiled(corpus_source("2pc_nofault"))
    arbiter = cs.automata[0]
    fires = [t for t in arbiter.transitions if t.kind == "send.fire"]
    # first phase sends Ready over chSends = [chWorker1Recv, chWorker2Recv]
    assert "chWorker1Recv" in fires[0].desc and "Ready" in fires[0].desc
    assert "chWorker2Recv" in fires[1].desc and "Ready" in fires[1].desc


def test_empty_array_for_lowises_to_noop():
    source = (
        "proc P(arr []channel { bool }) { for ch in arr { send(ch, true) } }\n"
        "init { p: P([]) }"
    )
    automaton = compiled(source).automata[0]
    assert [t.kind for t in automaton.transitions] == ["noop"]


@pytest.fixture(scope="module")
def all_builds(builds):
    """The corpus models and every golden source."""
    golden = [build_model(path.read_text()) for path in sorted(GOLDEN.glob("*.sandal"))]
    return [*builds.values(), *golden]


def test_every_nonterminal_location_has_an_exit(all_builds):
    """Before weaving, only the terminal lacks outgoing transitions."""
    for built in all_builds:
        for automaton in built.unwoven.automata:
            with_exit = {t.src for t in automaton.transitions}
            for loc in range(automaton.n_locations):
                if loc != automaton.terminal:
                    assert loc in with_exit
            assert automaton.terminal not in with_exit


def test_locations_are_numbered_in_topological_order(all_builds):
    """Every edge leads forward, unwoven and woven: the entry is 0, the
    unwoven terminal is last, and so is a woven shutdown location."""
    for built in all_builds:
        for cs in (built.unwoven, built.woven):
            for automaton in cs.automata:
                assert automaton.entry == 0
                for t in automaton.transitions:
                    assert t.src < t.dst, f"{automaton.name}: {t.src} -> {t.dst} ({t.label})"
                if automaton.shutdown_loc is not None:
                    assert automaton.shutdown_loc == automaton.n_locations - 1
        for automaton in built.unwoven.automata:
            assert automaton.terminal == automaton.n_locations - 1


NUMBERING_SOURCES = {
    **{f"n{n}-{mix}": (n, mix) for n in range(1, 6) for mix in FAULT_MIXES},
    **{f"n{n}-allfaults": (n, "allfaults") for n in (16, 32, 64)},
}


@pytest.mark.parametrize("name", ["corpus-and-golden", *NUMBERING_SOURCES])
def test_locations_follow_the_earliest_edge_rule(name, all_builds):
    """Renumbering an unwoven automaton by Kahn's algorithm with ties broken
    by earliest edge maps every location to itself."""
    if name == "corpus-and-golden":
        systems = [built.unwoven for built in all_builds]
    else:
        systems = [compiled(family_member(*NUMBERING_SOURCES[name]))]
    for cs in systems:
        for automaton in cs.automata:
            edges = [(t.src, t.dst) for t in automaton.transitions]
            order = earliest_edge_order(automaton.n_locations, edges)
            assert order == list(range(automaton.n_locations)), automaton.name


def test_automaton_connected_from_entry(all_builds):
    for built in all_builds:
        for automaton in built.unwoven.automata:
            seen = {automaton.entry}
            frontier = [automaton.entry]
            while frontier:
                loc = frontier.pop()
                for t in automaton.transitions:
                    if t.src == loc and t.dst not in seen:
                        seen.add(t.dst)
                        frontier.append(t.dst)
            assert seen == set(range(automaton.n_locations))


# ---------------------------------------------------------------------------
# Rendezvous handshake semantics


def test_lone_sender_blocks_mid_handshake():
    cs = compiled("proc S(c channel { bool }) { send(c, true) }\n"
                  "init { c: channel { bool }, s: S(c) }")
    state = initial_state(cs)
    steps = successor_transitions(cs, state)
    assert [t.kind for _, t, _ in steps] == ["send.fire"]
    mid = steps[0][2]
    assert mid.chans[0] == RvState(ready=True, received=False, buf=(True,))
    # received flag is false, so the sender cannot finish: global deadlock
    assert successor_transitions(cs, mid) == []
    assert [label for _, label, _ in successors(cs, mid)] == ["STUTTER"]


def test_recv_disabled_until_sender_fires():
    cs = compiled("proc R(c channel { bool }) { var v bool\n  recv(c, v) }\n"
                  "init { c: channel { bool }, r: R(c) }")
    state = take(cs, initial_state(cs), 0, "var")
    assert successor_transitions(cs, state) == []


def test_pingpong_post_var_state_has_single_enabled_step():
    cs = compiled(corpus_source("pingpong"))
    state = initial_state(cs)
    state = take(cs, state, 0, "var")
    state = take(cs, state, 1, "var")
    steps = successor_transitions(cs, state)
    assert len(steps) == 1
    proc, t, _ = steps[0]
    assert proc == 0 and t.kind == "send.fire"
    assert "starter_to_receiver" in t.desc


def test_full_handshake_resets_channel_for_reuse():
    cs = compiled(corpus_source("pingpong"))
    state = initial_state(cs)
    state = take(cs, state, 0, "var")
    state = take(cs, state, 1, "var")
    state = take(cs, state, 0, "send.fire")
    state = take(cs, state, 1, "recv")
    assert state.chans[1] == RvState(ready=True, received=True, buf=(True,))
    state = take(cs, state, 0, "send.done")
    assert state.chans[1] == RvState()  # back to the initial channel state
    assert state.procs[1].vars == (True,)  # the value arrived


def test_no_lost_message_without_faults():
    cs = compiled(corpus_source("pingpong"))
    for state in reachable_states(cs):
        if state.procs[0].loc == cs.automata[0].terminal:
            # the starter finished, so the echo arrived
            assert state.procs[0].vars == (True,)


TWO_SENDERS = (
    "proc Sender(ch channel { bool }) { send(ch, true) }\n"
    "proc Receiver(ch channel { bool }) {\n"
    "  var a bool\n"
    "  var b bool\n"
    "  recv(ch, a)\n"
    "  recv(ch, b)\n"
    "}\n"
    "init { s1: Sender(c), s2: Sender(c), r: Receiver(c), c: channel { bool } }"
)


def test_two_senders_are_mutually_exclusive():
    """The ready flag serializes senders: no state has both mid-handshake."""
    cs = compiled(TWO_SENDERS)
    sender_mid = {
        i: next(t.dst for t in cs.automata[i].transitions if t.kind == "send.fire")
        for i in (0, 1)
    }
    for state in reachable_states(cs):
        both_mid = (
            state.procs[0].loc == sender_mid[0]
            and state.procs[1].loc == sender_mid[1]
        )
        assert not both_mid


def test_two_senders_no_lost_or_duplicated_message():
    cs = compiled(TWO_SENDERS)
    terminal = [a.terminal for a in cs.automata]
    finished = [
        s for s in reachable_states(cs)
        if all(p.loc == t for p, t in zip(s.procs, terminal))
    ]
    assert finished, "both handshakes can complete"
    for state in finished:
        assert state.procs[2].vars == (True, True)
        assert state.chans[0] == RvState()


def test_one_value_goes_to_exactly_one_receiver():
    source = (
        "proc Sender(ch channel { bool }) { send(ch, true) }\n"
        "proc Recv(ch channel { bool }) {\n"
        "  var x bool\n"
        "  recv(ch, x)\n"
        "}\n"
        "init { s: Sender(c), r1: Recv(c), r2: Recv(c), c: channel { bool } }"
    )
    cs = compiled(source)
    deadlocks = [
        s for s in reachable_states(cs)
        if successor_transitions(cs, s) == []
    ]
    assert deadlocks
    for state in deadlocks:
        got1 = state.procs[1].vars == (True,)
        got2 = state.procs[2].vars == (True,)
        assert got1 != got2  # one winner, never zero or two


def test_handshake_safety_invariant_on_corpus(builds):
    """received implies a sender is still mid-handshake (ready set)."""
    for name in ("pingpong", "2pc_nofault", "2pc_allfaults"):
        cs = builds[name].woven
        for state in reachable_states(cs):
            for chan in state.chans:
                if isinstance(chan, RvState) and chan.received:
                    assert chan.ready, f"{name}: received without ready"


# ---------------------------------------------------------------------------
# timeout_recv / nonblock_recv


def test_timeout_recv_forced_timeout_when_no_sender():
    source = (
        "proc P(c channel { bool }) {\n"
        "  var x bool\n"
        "  var ok bool = timeout_recv(c, x)\n"
        "}\n"
        "init { c: channel { bool }, p: P(c) }"
    )
    cs = compiled(source)
    state = take(cs, initial_state(cs), 0, "var")
    steps = successor_transitions(cs, state)
    assert [t.kind for _, t, _ in steps] == ["timeout.fail"]
    after = steps[0][2]
    assert after.procs[0].vars == (False, False)  # x untouched, ok = false


def test_timeout_recv_may_time_out_even_with_sender_ready():
    source = (
        "proc S(c channel { bool }) { send(c, true) }\n"
        "proc P(c channel { bool }) {\n"
        "  var x bool\n"
        "  var ok bool = timeout_recv(c, x)\n"
        "}\n"
        "init { c: channel { bool }, s: S(c), p: P(c) }"
    )
    cs = compiled(source)
    state = initial_state(cs)
    state = take(cs, state, 0, "send.fire")  # sender stands ready
    state = take(cs, state, 1, "var")
    kinds = {t.kind for i, t, _ in successor_transitions(cs, state) if i == 1}
    assert kinds == {"timeout.ok", "timeout.fail"}  # both branches explored


def test_nonblock_recv_exactly_one_branch_enabled_everywhere():
    source = (
        "proc S(c channel { bool }) { send(c, true) }\n"
        "proc P(c channel { bool }) {\n"
        "  var x bool\n"
        "  var ok bool = nonblock_recv(c, x)\n"
        "}\n"
        "init { c: channel { bool }, s: S(c), p: P(c) }"
    )
    cs = compiled(source)
    nb_src = next(
        t.src for t in cs.automata[1].transitions if t.kind == "nonblock.ok"
    )
    seen = 0
    for state in reachable_states(cs):
        if state.procs[1].loc != nb_src:
            continue
        seen += 1
        kinds = [t.kind for i, t, _ in successor_transitions(cs, state) if i == 1]
        assert sorted(kinds) in (["nonblock.fail"], ["nonblock.ok"])
    assert seen > 1


def test_nonblock_recv_takes_value_only_when_ready():
    source = (
        "proc S(c channel { bool }) { send(c, true) }\n"
        "proc P(c channel { bool }) {\n"
        "  var x bool\n"
        "  var ok bool = nonblock_recv(c, x)\n"
        "}\n"
        "init { c: channel { bool }, s: S(c), p: P(c) }"
    )
    cs = compiled(source)
    state = initial_state(cs)
    state = take(cs, state, 0, "send.fire")
    state = take(cs, state, 1, "var")
    state = take(cs, state, 1, "nonblock.ok")
    assert state.procs[1].vars == (True, True)


def test_timeout_recv_works_on_buffered_channels():
    source = (
        "proc P(c channel [1] { bool }) {\n"
        "  var x bool\n"
        "  var ok bool = timeout_recv(c, x)\n"
        "}\n"
        "init { c: channel [1] { bool }, p: P(c) }"
    )
    cs = compiled(source)
    state = take(cs, initial_state(cs), 0, "var")
    # empty buffer: only the timeout branch
    assert [t.kind for _, t, _ in successor_transitions(cs, state)] == ["timeout.fail"]

    with_sender = (
        "proc S(c channel [1] { bool }) { send(c, true) }\n"
        "proc P(c channel [1] { bool }) {\n"
        "  var x bool\n"
        "  var ok bool = timeout_recv(c, x)\n"
        "}\n"
        "init { c: channel [1] { bool }, s: S(c), p: P(c) }"
    )
    cs = compiled(with_sender)
    state = take(cs, initial_state(cs), 0, "send.buffered")
    state = take(cs, state, 1, "var")
    kinds = {t.kind for i, t, _ in successor_transitions(cs, state) if i == 1}
    assert kinds == {"timeout.ok", "timeout.fail"}


def test_nested_for_unrolls_inner_per_outer_iteration():
    source = (
        "proc P(a []channel { bool }, b []channel { bool }) {\n"
        "  for x in a {\n"
        "    for y in b {\n"
        "      send(y, true)\n"
        "    }\n"
        "    send(x, true)\n"
        "  }\n"
        "}\n"
        "init { c1: channel { bool }, c2: channel { bool }, c3: channel { bool },\n"
        "  p: P([c1], [c2, c3]) }"
    )
    automaton = compiled(source).automata[0]
    fired = [t.desc for t in automaton.transitions if t.kind == "send.fire"]
    assert fired == ["send(c2, true)", "send(c3, true)", "send(c1, true)"]


# ---------------------------------------------------------------------------
# Buffered channels


def test_buffered_fifo_and_peek():
    source = (
        "data V { A, B }\n"
        "proc P(c channel [2] { V }) {\n"
        "  var x V\n"
        "  var y V\n"
        "  send(c, A)\n"
        "  send(c, B)\n"
        "  peek(c, x)\n"
        "  recv(c, y)\n"
        "  recv(c, x)\n"
        "}\n"
        "init { c: channel [2] { V }, p: P(c) }"
    )
    cs = compiled(source)
    state = initial_state(cs)
    state = take(cs, state, 0, "var")
    state = take(cs, state, 0, "var")
    state = take(cs, state, 0, "send.buffered")
    assert state.chans[0].queue == (("A",),)
    state = take(cs, state, 0, "send.buffered")
    assert state.chans[0].queue == (("A",), ("B",))
    state = take(cs, state, 0, "peek")
    assert state.procs[0].vars[0] == "A"  # peek copies, no pop
    assert len(state.chans[0].queue) == 2
    state = take(cs, state, 0, "recv")
    assert state.procs[0].vars[1] == "A"  # FIFO: first in, first out
    assert len(state.chans[0].queue) == 1
    state = take(cs, state, 0, "recv")
    assert state.procs[0].vars[0] == "B"
    assert state.chans[0].queue == ()


def test_buffered_capacity_blocks_sender():
    source = (
        "proc P(c channel [1] { bool }) {\n"
        "  send(c, true)\n"
        "  send(c, true)\n"
        "}\n"
        "init { c: channel [1] { bool }, p: P(c) }"
    )
    cs = compiled(source)
    state = take(cs, initial_state(cs), 0, "send.buffered")
    assert successor_transitions(cs, state) == []  # full: second send blocked


def test_buffered_send_unblocks_after_recv():
    source = (
        "proc S(c channel [1] { bool }) {\n"
        "  send(c, true)\n"
        "  send(c, false)\n"
        "}\n"
        "proc R(c channel [1] { bool }) {\n"
        "  var x bool\n"
        "  recv(c, x)\n"
        "  recv(c, x)\n"
        "}\n"
        "init { c: channel [1] { bool }, s: S(c), r: R(c) }"
    )
    cs = compiled(source)
    terminals = [a.terminal for a in cs.automata]
    assert any(
        all(p.loc == t for p, t in zip(s.procs, terminals))
        for s in reachable_states(cs)
    )


def test_multi_value_send_recv():
    source = (
        "data V { A, B }\n"
        "proc S(c channel { bool, V }) { send(c, true, B) }\n"
        "proc R(c channel { bool, V }) {\n"
        "  var f bool\n"
        "  var v V\n"
        "  recv(c, f, v)\n"
        "}\n"
        "init { c: channel { bool, V }, s: S(c), r: R(c) }"
    )
    cs = compiled(source)
    state = initial_state(cs)
    state = take(cs, state, 0, "send.fire")
    state = take(cs, state, 1, "var")
    state = take(cs, state, 1, "var")
    state = take(cs, state, 1, "recv")
    assert state.procs[1].vars == (True, "B")


# ---------------------------------------------------------------------------
# Dump listing


def test_dump_is_deterministic_and_ordered(builds):
    built_a = build_model(corpus_source("2pc_allfaults"))
    built_b = build_model(corpus_source("2pc_allfaults"))
    for auto_a, auto_b in zip(built_a.woven.automata, built_b.woven.automata):
        dump_a = dump_automaton(auto_a, built_a.system)
        dump_b = dump_automaton(auto_b, built_b.system)
        assert dump_a == dump_b
        body = dump_a.splitlines()[1:]
        srcs = [int(line.split(" ->")[0]) for line in body]
        assert srcs == sorted(srcs)


def test_dump_line_format():
    cs = compiled(corpus_source("pingpong"))
    built = build_model(corpus_source("pingpong"))
    dump = dump_automaton(cs.automata[0], built.system)
    line = dump.splitlines()[2]
    assert "->" in line and "[" in line and "/" in line and "(" in line


def test_every_condition_form_matches_golden():
    """Plain and receive conditions of if, var and assign, woven with @drop
    and @shutdown, pinned through dump-ir text and SMV emission."""
    built = build_model((GOLDEN / "conditions.sandal").read_text())
    dump = "".join(dump_automaton(a, built.system) for a in built.woven.automata)
    assert dump == (GOLDEN / "conditions.dump").read_text()
    smv = emit_smv(built.system, built.woven.automata).render()
    assert smv == (GOLDEN / "conditions.smv").read_text()
    assert [s.text for s in built.system.ltl_specs] == [
        "G (p.got -> p.m == A)",
        "F (G (p.ok || p.m != B))",
    ]
