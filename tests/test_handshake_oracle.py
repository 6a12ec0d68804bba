"""Cross-checks the lowered handshake semantics, `timeout_recv`, and the
woven shutdown and drop faults, against an independent brute-force
simulator (see oracles.HandshakeSim) by graph isomorphism."""

from itertools import combinations

import pytest

from sandalc.checker import initial_state, successor_transitions
from sandalc.corpus import corpus_source
from sandalc.pipeline import build_model

from oracles import HandshakeSim, assert_isomorphic, enumerate_graph

# transition kinds as edge keys shared by both graphs
KIND_MAP = {
    "var": "var",
    "send.fire": "send_fire",
    "send.done": "send_done",
    "recv": "recv",
    "timeout.ok": "timeout_ok",
    "timeout.fail": "timeout_fail",
    "shutdown": "shutdown",
    "drop": "drop",
}

PINGPONG_STATE_COUNT = 12
TWO_SENDER_STATE_COUNT = 18

TWO_SENDERS = (
    "proc Sender(ch channel { bool }) { send(ch, true) }\n"
    "proc Receiver(ch channel { bool }) {\n"
    "  var a bool\n"
    "  var b bool\n"
    "  recv(ch, a)\n"
    "  recv(ch, b)\n"
    "}\n"
    "init {\n"
    "  s1: Sender(c),\n"
    "  s2: Sender(c),\n"
    "  r: Receiver(c),\n"
    "  c: channel { bool },\n"
    "}\n"
)

TIMEOUT_RECEIVER = (
    "proc Sender(ch channel { bool }) { send(ch, true) }\n"
    "proc Receiver(ch channel { bool }) {\n"
    "  var v bool\n"
    "  var ok bool = timeout_recv(ch, v)\n"
    "}\n"
    "init {\n"
    "  s: Sender(c),\n"
    "  r: Receiver(c),\n"
    "  c: channel { bool },\n"
    "}\n"
)


def checker_graph(cs):
    """The system's reachable graph keyed by (process, op kind); no stutter."""

    def steps(state):
        out = []
        for i, t, nxt in successor_transitions(cs, state):
            out.append(((i, KIND_MAP[t.kind]), nxt))
        return out

    init = initial_state(cs)
    return enumerate_graph(init, steps), init


def test_pingpong_graph_matches_brute_force_enumeration():
    cs = build_model(corpus_source("pingpong")).unwoven
    graph_c, init_c = checker_graph(cs)

    # Corpus binding order: chan 0 = receiver_to_starter, 1 = starter_to_receiver.
    starter = [("var", 0), ("send_fire", 1, True), ("send_done", 1), ("recv", 0, 0)]
    receiver = [("var", 0), ("recv", 1, 0), ("send_fire", 0, True), ("send_done", 0)]
    sim = HandshakeSim([starter, receiver], [1, 1], 2)
    graph_o = enumerate_graph(sim.initial(), sim.steps)

    assert len(graph_c) == len(graph_o) == PINGPONG_STATE_COUNT
    assert_isomorphic(graph_c, init_c, graph_o, sim.initial())


def test_two_senders_graph_matches_brute_force_enumeration():
    cs = build_model(TWO_SENDERS).unwoven
    graph_c, init_c = checker_graph(cs)

    sender = [("send_fire", 0, True), ("send_done", 0)]
    receiver = [("var", 0), ("var", 1), ("recv", 0, 0), ("recv", 0, 1)]
    sim = HandshakeSim([sender, sender, receiver], [0, 0, 2], 1)
    graph_o = enumerate_graph(sim.initial(), sim.steps)

    assert len(graph_c) == len(graph_o) == TWO_SENDER_STATE_COUNT
    assert_isomorphic(graph_c, init_c, graph_o, sim.initial())


# Per model: its source, its init entries as (name, marker, process or channel
# index) in source order, the simulator's programs and local counts, and its
# state counts with no entry and with every entry marked.
FAULT_MODELS = {
    "pingpong": (
        corpus_source("pingpong"),
        [("P0", "shutdown", 0), ("P1", "shutdown", 1),
         ("receiver_to_starter", "drop", 0), ("starter_to_receiver", "drop", 1)],
        [[("var", 0), ("send_fire", 1, True), ("send_done", 1), ("recv", 0, 0)],
         [("var", 0), ("recv", 1, 0), ("send_fire", 0, True), ("send_done", 0)]],
        [1, 1],
        (PINGPONG_STATE_COUNT, 46),
    ),
    "two_senders": (
        TWO_SENDERS,
        [("s1", "shutdown", 0), ("s2", "shutdown", 1), ("r", "shutdown", 2),
         ("c", "drop", 0)],
        [[("send_fire", 0, True), ("send_done", 0)]] * 2
        + [[("var", 0), ("var", 1), ("recv", 0, 0), ("recv", 0, 1)]],
        [0, 0, 2],
        (TWO_SENDER_STATE_COUNT, 154),
    ),
    "timeout_receiver": (
        TIMEOUT_RECEIVER,
        [("s", "shutdown", 0), ("r", "shutdown", 1), ("c", "drop", 0)],
        [[("send_fire", 0, True), ("send_done", 0)],
         [("var", 0), ("timeout_recv", 0, 0, 1)]],
        [0, 2],
        (8, 28),
    ),
}
FAULT_CASES = [
    (model, marked)
    for model, (_, entries, *_) in FAULT_MODELS.items()
    for k in range(len(entries) + 1)
    for marked in combinations([name for name, _, _ in entries], k)
]


def _with_markers(source, entries, marked):
    """`source` with each marked init entry's fault marker before its comma."""
    lines = source.split("\n")
    for name, marker, _ in entries:
        if name in marked:
            (k,) = [k for k, line in enumerate(lines) if line.startswith(f"  {name}: ")]
            assert lines[k].endswith(",")
            lines[k] = f"{lines[k][:-1]} @{marker},"
    return "\n".join(lines)


@pytest.mark.parametrize(
    "model, marked", FAULT_CASES, ids=[f"{m}-{'+'.join(k) or 'none'}" for m, k in FAULT_CASES]
)
def test_woven_faults_match_the_fault_simulator(model, marked):
    source, entries, programs, n_locals, (fewest, most) = FAULT_MODELS[model]
    cs = build_model(_with_markers(source, entries, marked)).woven
    graph_c, init_c = checker_graph(cs)

    chosen = [(marker, index) for name, marker, index in entries if name in marked]
    sim = HandshakeSim(
        programs,
        n_locals,
        sum(marker == "drop" for _, marker, _ in entries),
        crash=frozenset(i for marker, i in chosen if marker == "shutdown"),
        lossy=frozenset(i for marker, i in chosen if marker == "drop"),
    )
    graph_o = enumerate_graph(sim.initial(), sim.steps)

    assert_isomorphic(graph_c, init_c, graph_o, sim.initial())
    # Every marker only adds behaviour: the graphs grow from `fewest` states
    # with no marker to `most` with all of them.
    if not marked or len(marked) == len(entries):
        assert len(graph_c) == (most if marked else fewest)
    else:
        assert fewest < len(graph_c) < most


def test_handshake_safety_holds_globally():
    """Across both oracle graphs: received implies ready, and any received
    value equals the value most recently placed in the buffer."""
    for name in ("pingpong",):
        cs = build_model(corpus_source(name)).unwoven
        graph, _ = checker_graph(cs)
        for state in graph:
            for chan in state.chans:
                if chan.received:
                    assert chan.ready
                    assert chan.buf is not None
