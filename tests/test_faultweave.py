import random

import pytest

from sandalc.checker import initial_state, successor_transitions
from sandalc.corpus import MODEL_NAMES, corpus_source
from sandalc.faultweave import weave_drop, weave_shutdown, weave_system
from sandalc.pipeline import build_model


def unwoven_automaton(source, index=0):
    return build_model(source).unwoven.automata[index]


def send_channels(automaton):
    """The channel of every send statement, found by the send's first edge."""
    return [
        t.actions[0].chan
        for t in automaton.transitions
        if t.kind in ("send.fire", "send.buffered")
    ]


THREE_STATEMENTS = (
    "proc P() {\n"
    "  var a bool\n"
    "  a = true\n"
    "  a = false\n"
    "}\n"
    "init { p: P() @shutdown }"
)


def test_shutdown_adds_one_edge_per_boundary_location():
    automaton = unwoven_automaton(THREE_STATEMENTS)
    assert automaton.n_locations == 4  # 3 statements -> 4 boundaries
    woven = weave_shutdown(automaton)
    crashes = [t for t in woven.transitions if t.kind == "shutdown"]
    assert len(crashes) == 4
    assert {t.src for t in crashes} == set(range(4))
    assert all(t.dst == woven.shutdown_loc for t in crashes)
    assert all(t.actions == () for t in crashes)


def test_shutdown_location_is_absorbing():
    woven = weave_shutdown(unwoven_automaton(THREE_STATEMENTS))
    assert all(t.src != woven.shutdown_loc for t in woven.transitions)


def test_original_transitions_untouched():
    automaton = unwoven_automaton(THREE_STATEMENTS)
    woven = weave_shutdown(automaton)
    assert woven.transitions[: len(automaton.transitions)] == automaton.transitions


def test_unmarked_process_returned_identical():
    built = build_model(corpus_source("pingpong"))
    woven, report = weave_system(built.unwoven)
    assert woven.automata == built.unwoven.automata
    assert report.shutdown_transitions == {}
    assert report.drop_transitions == {}


def test_shutdown_includes_mid_handshake_locations():
    """A sender can crash between its two handshake steps."""
    source = (
        "proc S(c channel { bool }) { send(c, true) }\n"
        "init { c: channel { bool }, s: S(c) @shutdown }"
    )
    built = build_model(source)
    woven = built.woven.automata[0]
    fire = next(t for t in woven.transitions if t.kind == "send.fire")
    mid_crash = [
        t for t in woven.transitions if t.kind == "shutdown" and t.src == fire.dst
    ]
    assert len(mid_crash) == 1
    # semantically: crash mid-handshake leaves the ready flag set forever
    cs = built.woven
    state = initial_state(cs)
    state = next(n for _, t, n in successor_transitions(cs, state) if t.kind == "send.fire")
    state = next(n for _, t, n in successor_transitions(cs, state) if t.kind == "shutdown")
    assert state.chans[0].ready and state.procs[0].loc == woven.shutdown_loc
    assert successor_transitions(cs, state) == []


def test_crash_reachable_from_every_statement_boundary():
    """A marked starter can die before, between and after its steps."""
    source = corpus_source("pingpong").replace(
        "P0: Starter(receiver_to_starter, starter_to_receiver),",
        "P0: Starter(receiver_to_starter, starter_to_receiver) @shutdown,",
    )
    built = build_model(source)
    cs = built.woven
    from oracles import build_graph

    _, succ = build_graph(cs)
    starter = cs.automata[0]
    seen_locs = {s.procs[0].loc for s in succ}
    for loc in range(starter.n_locations - 1):  # every pre-weave location
        assert loc in seen_locs
        state = next(s for s in succ if s.procs[0].loc == loc)
        crashes = [
            n for _, t, n in successor_transitions(cs, state) if t.kind == "shutdown"
        ]
        assert crashes and all(
            n.procs[0].loc == starter.shutdown_loc for n in crashes
        )


def test_single_send_gets_single_drop_edge():
    source = (
        "proc S(c channel { bool }) { send(c, true) }\n"
        "init { c: channel { bool } @drop, s: S(c) }"
    )
    built = build_model(source)
    woven = built.woven.automata[0]
    drops = [t for t in woven.transitions if t.kind == "drop"]
    assert len(drops) == 1
    fire, done = (t for t in woven.transitions if t.kind.startswith("send."))
    assert (fire.kind, done.kind) == ("send.fire", "send.done")
    assert (drops[0].src, drops[0].dst) == (fire.src, done.dst)
    assert drops[0].actions == ()
    assert built.report.drop_transitions == {"c": 1}


def test_drop_skips_channel_effect_silently():
    source = (
        "proc S(c channel { bool }) { send(c, true) }\n"
        "init { c: channel { bool } @drop, s: S(c) }"
    )
    cs = build_model(source).woven
    state = initial_state(cs)
    dropped = next(n for _, t, n in successor_transitions(cs, state) if t.kind == "drop")
    # the sender reached its exit believing the send happened...
    assert dropped.procs[0].loc == cs.automata[0].terminal
    # ...but the channel never saw it
    assert dropped.chans[0] == initial_state(cs).chans[0]


def test_two_phase_commit_drop_counts_match_send_sites():
    built = build_model(corpus_source("2pc_allfaults"))
    expected = {chan.name: 0 for chan in built.system.channels}
    for automaton in built.unwoven.automata:
        for chan in send_channels(automaton):
            expected[built.system.channels[chan].name] += 1
    assert built.report.drop_transitions == expected
    # arbiter sends Ready/Commit/Abort per worker-recv channel, workers offer
    # NotReady|Ready per worker-send channel
    assert expected == {
        "chWorker1Send": 2,
        "chWorker1Recv": 3,
        "chWorker2Send": 2,
        "chWorker2Recv": 3,
    }


def test_two_phase_commit_shutdown_counts_are_location_counts():
    built = build_model(corpus_source("2pc_allfaults"))
    for proc, unwoven in zip(built.system.processes, built.unwoven.automata):
        assert built.report.shutdown_transitions[proc.name] == unwoven.n_locations


def test_buffered_drop_skips_the_push():
    source = (
        "proc S(c channel [1] { bool }) { send(c, true) }\n"
        "init { c: channel [1] { bool } @drop, s: S(c) }"
    )
    cs = build_model(source).woven
    state = initial_state(cs)
    dropped = next(n for _, t, n in successor_transitions(cs, state) if t.kind == "drop")
    assert dropped.chans[0].queue == ()
    assert dropped.procs[0].loc == cs.automata[0].terminal


def test_report_counts_zero_iff_marker_absent(builds):
    for name in MODEL_NAMES:
        built = builds[name]
        report = built.report
        for proc in built.system.processes:
            assert (report.shutdown_transitions.get(proc.name, 0) > 0) == proc.shutdown_fault
        sent = {c for automaton in built.unwoven.automata for c in send_channels(automaton)}
        for i, chan in enumerate(built.system.channels):
            count = report.drop_transitions.get(chan.name, 0)
            if not chan.drop_fault:
                assert count == 0
            elif i in sent:
                assert count > 0


def test_report_rendering():
    built = build_model(corpus_source("2pc_allfaults"))
    text = built.report.render()
    assert "arbiter" in text and "shutdown" in text
    assert "chWorker1Send" in text and "drop" in text


def test_weave_drop_only_touches_marked_channels():
    built = build_model(corpus_source("2pc_drop"))
    report = built.report
    assert set(report.drop_transitions) == {c.name for c in built.system.channels}
    assert report.shutdown_transitions == {}


@pytest.mark.parametrize("name", ["pingpong", "2pc_allfaults", "2pc_shutdown"])
def test_superset_property_sampled(builds, name):
    """Random unwoven traces replay step-for-step on the woven system."""
    built = builds[name]
    rng = random.Random(20140301)
    succ_cache = {}

    def unwoven_steps(state):
        if state not in succ_cache:
            succ_cache[state] = successor_transitions(built.unwoven, state)
        return succ_cache[state]

    woven_cache = {}

    def woven_steps(state):
        if state not in woven_cache:
            woven_cache[state] = successor_transitions(built.woven, state)
        return woven_cache[state]

    init = initial_state(built.unwoven)
    assert init == initial_state(built.woven)
    for _ in range(100):
        state = init
        trace = []
        for _ in range(60):
            steps = unwoven_steps(state)
            if not steps:
                break
            proc, t, nxt = rng.choice(steps)
            trace.append((proc, t.label, nxt))
            state = nxt
        replay_state = init
        for proc, label, nxt in trace:
            matches = [
                n for i, t, n in woven_steps(replay_state)
                if i == proc and t.label == label and n == nxt
            ]
            assert matches, f"unwoven step {label} missing from woven system"
            replay_state = matches[0]
