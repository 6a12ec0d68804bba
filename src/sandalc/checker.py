"""Explicit-state verification of the composed system.

The woven automata run under interleaving semantics: one enabled transition
of one process per global step.  A globally deadlocked state gets a single
self-loop (stutter), so every maximal run is infinite and liveness questions
are well-posed.

Supported spec shapes are G(p), F(p), F(G(p)) and G(F(p)) with p
propositional.  Lowering unrolls loops, so every process automaton is
acyclic (checked before each search), and the only cycles of the product
are the stutter self-loops at global deadlock.  Every run therefore ends by
stuttering forever in one deadlocked state, and each pattern is a
reachability question:

* G(p) fails iff a !p state is reachable;
* F(p) fails iff a deadlocked !p state is reachable through !p states only;
* F(G(p)) and G(F(p)) fail iff a deadlocked !p state is reachable.

One breadth-first search with parent pointers answers all four, so every
counterexample is shortest: a finite path for G(p), and for the others that
path plus one stutter step as the loop of a lasso.  Weak process fairness
cannot change a verdict, since no process is enabled at a deadlock, so there
is no fairness setting.

Guards, action values and propositions share their node set (see sema.py),
so one evaluator serves all three.  A transition applies its actions as
SMV's next() does: every value and payload reads the pre-state, and a later
write to the same slot wins.

Counterexamples are replayable: applying the recorded labels from the initial
state reproduces the recorded states exactly.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

from . import ir
from .ir import CompiledSystem, Transition
from .sema import PAtom, PBin, PBool, PEnum, PNot, Prop, PTemporal, ResolvedSpec, Value
from .sema import render_value

DEFAULT_MAX_STATES = 10_000_000

STUTTER_LABEL = "STUTTER"
STUTTER_NAME = "(system)"


class StateLimitExceeded(Exception):
    def __init__(self, limit: int) -> None:
        super().__init__(f"reachable states exceed the configured bound of {limit}")
        self.limit = limit


class UnsupportedFormula(Exception):
    """Spec outside the G/F/FG/GF fragment; it can still be emitted as SMV."""


class ReplayError(Exception):
    pass


# ---------------------------------------------------------------------------
# Global states


@dataclass(frozen=True)
class ProcState:
    loc: int
    vars: tuple[Value, ...]


@dataclass(frozen=True)
class RvState:
    """Rendezvous channel: handshake flags and the one-slot value buffer."""

    ready: bool = False
    received: bool = False
    buf: tuple[Value, ...] | None = None


@dataclass(frozen=True)
class BufState:
    """Buffered channel: bounded FIFO of payload tuples."""

    queue: tuple[tuple[Value, ...], ...] = ()


ChanState = RvState | BufState


@dataclass(frozen=True)
class GlobalState:
    procs: tuple[ProcState, ...]
    chans: tuple[ChanState, ...]


def initial_state(cs: CompiledSystem) -> GlobalState:
    procs = tuple(ProcState(loc=a.entry, vars=a.initial_locals) for a in cs.automata)
    chans = tuple(
        BufState() if chan.type.is_buffered else RvState()
        for chan in cs.instance.channels
    )
    return GlobalState(procs=procs, chans=chans)


# ---------------------------------------------------------------------------
# Expression evaluation and action application


def _eval(e, vars_: tuple, chans: tuple, procs: tuple):
    """Evaluate a guard or value (an ir.IrExpr) over one process's locals and
    the channels, or a Prop, whose atoms read the locals of any process.

    Tests run in order of frequency: a search evaluates its proposition on
    every state, so binary nodes and atoms come first.  `&&`, `||` and `->`
    skip their right operand when the left decides them."""
    if isinstance(e, PBin):
        left = _eval(e.left, vars_, chans, procs)
        if e.op == "&&":
            return left and _eval(e.right, vars_, chans, procs)
        if e.op == "||":
            return left or _eval(e.right, vars_, chans, procs)
        if e.op == "->":
            return (not left) or _eval(e.right, vars_, chans, procs)
        if e.op == "==":
            return left == _eval(e.right, vars_, chans, procs)
        return left != _eval(e.right, vars_, chans, procs)  # !=
    if isinstance(e, PAtom):
        return procs[e.proc].vars[e.slot]
    if isinstance(e, PEnum):
        return e.ctor
    if isinstance(e, PNot):
        return not _eval(e.sub, vars_, chans, procs)
    if isinstance(e, PBool):
        return e.value
    if isinstance(e, ir.EVar):
        return vars_[e.slot]
    if isinstance(e, ir.EChanReady):
        return chans[e.chan].ready
    if isinstance(e, ir.EChanReceived):
        return chans[e.chan].received
    if isinstance(e, ir.EChanBufItem):
        return chans[e.chan].buf[e.index]
    if isinstance(e, ir.EChanNotFull):
        return len(chans[e.chan].queue) < e.capacity
    if isinstance(e, ir.EChanNotEmpty):
        return len(chans[e.chan].queue) > 0
    if isinstance(e, PTemporal):
        raise UnsupportedFormula("temporal operator in propositional position")
    assert isinstance(e, ir.EChanHeadItem)
    return chans[e.chan].queue[0][e.index]


def _apply(t: Transition, proc_index: int, state: GlobalState) -> GlobalState:
    """The state after `t`: each action reads `state`, a later write wins."""
    procs, chans = state.procs, state.chans
    pre = procs[proc_index].vars
    vars_ = list(pre)
    post = list(chans)
    for action in t.actions:
        if isinstance(action, ir.ASetVar):
            vars_[action.slot] = _eval(action.value, pre, chans, procs)
        elif isinstance(action, ir.ABeginSend):
            payload = tuple(_eval(v, pre, chans, procs) for v in action.payload)
            post[action.chan] = RvState(ready=True, received=False, buf=payload)
        elif isinstance(action, ir.AFinishSend):
            post[action.chan] = RvState()
        elif isinstance(action, ir.AMarkReceived):
            old = chans[action.chan]
            post[action.chan] = RvState(ready=old.ready, received=True, buf=old.buf)
        elif isinstance(action, ir.APush):
            payload = tuple(_eval(v, pre, chans, procs) for v in action.payload)
            post[action.chan] = BufState(queue=chans[action.chan].queue + (payload,))
        else:
            assert isinstance(action, ir.APop)
            post[action.chan] = BufState(queue=chans[action.chan].queue[1:])
    new_procs = list(procs)
    new_procs[proc_index] = ProcState(loc=t.dst, vars=tuple(vars_))
    return GlobalState(procs=tuple(new_procs), chans=tuple(post))


Succ = tuple[int | None, str, GlobalState]


def successor_transitions(
    cs: CompiledSystem, state: GlobalState
) -> list[tuple[int, Transition, GlobalState]]:
    """Enabled process transitions in (process index, declaration) order."""
    out = []
    for i, automaton in enumerate(cs.automata):
        proc = state.procs[i]
        for t in automaton.by_src.get(proc.loc, ()):
            if _eval(t.guard, proc.vars, state.chans, state.procs):
                out.append((i, t, _apply(t, i, state)))
    return out


def successors(cs: CompiledSystem, state: GlobalState) -> list[Succ]:
    """Enabled interleaving steps in (process index, declaration) order.

    A globally deadlocked state yields exactly one stutter successor so that
    every maximal run is infinite.
    """
    out: list[Succ] = [
        (i, t.label, nxt) for i, t, nxt in successor_transitions(cs, state)
    ]
    if not out:
        out.append((None, STUTTER_LABEL, state))
    return out


# ---------------------------------------------------------------------------
# Propositional evaluation


def eval_prop(p: Prop, state: GlobalState) -> Value:
    """Evaluate a propositional formula; atoms read process-local variables.

    A variable of a shutdown process keeps (and reports) its last value.
    """
    return _eval(p, (), state.chans, state.procs)


# ---------------------------------------------------------------------------
# Spec patterns


def _has_temporal(p: Prop) -> bool:
    if isinstance(p, PTemporal):
        return True
    if isinstance(p, PNot):
        return _has_temporal(p.sub)
    if isinstance(p, PBin):
        return _has_temporal(p.left) or _has_temporal(p.right)
    return False


def extract_pattern(formula: Prop) -> tuple[str, Prop]:
    """Classify a formula as G / F / FG / GF over a propositional core."""
    ops: list[str] = []
    f = formula
    while isinstance(f, PTemporal):
        if not ops or ops[-1] != f.op:  # collapse GG -> G, FF -> F
            ops.append(f.op)
        f = f.sub
    if _has_temporal(f):
        raise UnsupportedFormula("temporal operators nested inside the formula body")
    key = "".join(ops)
    if key in ("G", "F", "FG", "GF"):
        return key, f
    raise UnsupportedFormula(
        f"formula shape '{key or 'propositional'}' outside the G/F/FG/GF fragment"
    )


# ---------------------------------------------------------------------------
# Verdicts


class Result(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"


@dataclass(frozen=True)
class Step:
    proc: int | None  # None for the stutter step
    proc_name: str
    label: str
    state: GlobalState


@dataclass(frozen=True)
class Counterexample:
    initial: GlobalState
    prefix: tuple[Step, ...]
    loop: tuple[Step, ...] | None  # None: finite safety trace; else a lasso


@dataclass(frozen=True)
class Verdict:
    result: Result
    counterexample: Counterexample | None = None
    # Distinct states the search had discovered when it stopped.
    states_explored: int = 0

    @property
    def passed(self) -> bool:
        return self.result is Result.PASS


# ---------------------------------------------------------------------------
# Search: one breadth-first search serves every pattern


def _require_acyclic(cs: CompiledSystem) -> None:
    """Raise ValueError if a process automaton has a cycle.

    Deciding liveness by deadlock reachability is sound only when the stutter
    self-loops are the sole cycles of the product, which holds when every
    automaton is acyclic.
    """
    for automaton in cs.automata:
        order = TopologicalSorter()
        for t in automaton.transitions:
            order.add(t.dst, t.src)
        try:
            order.prepare()
        except CycleError as exc:
            cycle = exc.args[1]  # locations in edge order, first == last
            t = next(t for t in automaton.transitions if [t.src, t.dst] == cycle[:2])
            raise ValueError(
                f"process {automaton.name}: transition {t.src} -> {t.dst} ({t.label}) "
                f"lies on the cycle {' -> '.join(map(str, cycle))}; "
                "the checker needs acyclic automata"
            ) from None


def _path_to(cs: CompiledSystem, parents, state: GlobalState) -> tuple[Step, ...]:
    steps: list[Step] = []
    while parents[state] is not None:  # a path never stutters
        state, (proc, label, nxt) = parents[state]
        steps.append(Step(proc, cs.instance.processes[proc].name, label, nxt))
    return tuple(reversed(steps))


def _search(
    cs: CompiledSystem, inside, target, lasso: bool, max_states: int
) -> Verdict:
    """Shortest path, through states satisfying `inside`, to a `target` state.

    `target(state, succs)` is tested when a state is expanded, with its
    successors.  The path found is the counterexample; with `lasso`, one
    stutter step at the target state closes it into a loop.  A MemoryError
    leaves with the number of states found in its `states` attribute.
    """
    _require_acyclic(cs)
    init = initial_state(cs)
    parents: dict[GlobalState, tuple[GlobalState, Succ] | None] = {init: None}
    frontier = deque([init] if inside(init) else ())
    try:
        while frontier:
            state = frontier.popleft()
            succs = successors(cs, state)
            if target(state, succs):
                loop = (Step(None, STUTTER_NAME, STUTTER_LABEL, state),) if lasso else None
                cex = Counterexample(init, _path_to(cs, parents, state), loop)
                return Verdict(Result.FAIL, cex, len(parents))
            for succ in succs:
                nxt = succ[2]
                if nxt in parents or not inside(nxt):
                    continue
                parents[nxt] = (state, succ)
                if len(parents) > max_states:
                    raise StateLimitExceeded(max_states)
                frontier.append(nxt)
    except MemoryError as exc:
        count = len(parents)
        parents.clear()  # room to attach the count for the caller's diagnostic
        frontier.clear()
        exc.states = count
        raise
    return Verdict(Result.PASS, None, len(parents))


def check_spec(
    cs: CompiledSystem, spec: ResolvedSpec, max_states: int = DEFAULT_MAX_STATES
) -> Verdict:
    """Decide a G / F / FG / GF spec by one search.

    G(p): a shortest path to a !p state.  F(p): a shortest lasso stuttering
    forever in a deadlocked state reached through !p states only.  FG(p),
    GF(p): one stuttering in any reachable deadlocked !p state.  A system
    with no processes is deadlocked in its initial state and stutters there.
    """
    pattern, prop = extract_pattern(spec.formula)
    notp = lambda s: not eval_prop(prop, s)
    anywhere = lambda s: True
    stuck = lambda succs: len(succs) == 1 and succs[0][0] is None
    if pattern == "G":
        inside, target = anywhere, lambda s, succs: notp(s)
    elif pattern == "F":
        inside, target = notp, lambda s, succs: stuck(succs)
    else:
        inside, target = anywhere, lambda s, succs: stuck(succs) and notp(s)
    return _search(cs, inside, target, lasso=pattern != "G", max_states=max_states)


# ---------------------------------------------------------------------------
# Replay and rendering


def replay(cs: CompiledSystem, cex: Counterexample) -> None:
    """Re-run a counterexample from the initial state; raises on any mismatch."""
    state = initial_state(cs)
    if state != cex.initial:
        raise ReplayError("recorded initial state differs")
    for k, step in enumerate(cex.prefix + (cex.loop or ())):
        for proc, label, nxt in successors(cs, state):
            if proc == step.proc and label == step.label and nxt == step.state:
                state = nxt
                break
        else:
            raise ReplayError(f"step {k + 1} ({step.label}) cannot be replayed")
    if cex.loop:
        loop_head = cex.prefix[-1].state if cex.prefix else cex.initial
        if state != loop_head:
            raise ReplayError("loop does not close back on its head state")


def _state_fields(cs: CompiledSystem, state: GlobalState) -> dict[str, str]:
    fields: dict[str, str] = {}
    for proc, ps, automaton in zip(cs.instance.processes, state.procs, cs.automata):
        loc = "shutdown" if ps.loc == automaton.shutdown_loc else str(ps.loc)
        fields[f"{proc.name}.@loc"] = loc
        for slot, value in zip(automaton.locals, ps.vars):
            fields[f"{proc.name}.{slot.name}"] = render_value(value)
    for chan, chan_state in zip(cs.instance.channels, state.chans):
        if isinstance(chan_state, RvState):
            fields[f"{chan.name}.ready"] = render_value(chan_state.ready)
            fields[f"{chan.name}.received"] = render_value(chan_state.received)
            buf = (
                "-"
                if chan_state.buf is None
                else "(" + ", ".join(render_value(v) for v in chan_state.buf) + ")"
            )
            fields[f"{chan.name}.buffer"] = buf
        else:
            items = ", ".join(
                "(" + ", ".join(render_value(v) for v in item) + ")"
                for item in chan_state.queue
            )
            fields[f"{chan.name}.queue"] = f"[{items}]"
    return fields


def format_trace(cs: CompiledSystem, cex: Counterexample) -> str:
    """Numbered steps with changed-variable diffs; lassos end in a LOOP line."""
    lines = ["counterexample:"]
    prev_fields = _state_fields(cs, cex.initial)
    lines.append("  initial: " + ", ".join(f"{k}={v}" for k, v in prev_fields.items()))
    steps = list(cex.prefix) + list(cex.loop or ())
    for k, step in enumerate(steps, start=1):
        marker = ""
        if cex.loop and k == len(cex.prefix) + 1:
            marker = " (loop starts)"
        lines.append(f"#{k} {step.proc_name}: {step.label}{marker}")
        fields = _state_fields(cs, step.state)
        for key, value in fields.items():
            if prev_fields[key] != value:
                lines.append(f"    {key} = {value}")
        prev_fields = fields
    if cex.loop:
        lines.append(f"LOOP back to step #{len(cex.prefix)}")
    return "\n".join(lines) + "\n"
