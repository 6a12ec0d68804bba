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

States are named tuples (a GlobalState of ProcStates and channel records),
so the search hashes and compares them in C, and a successor shares every
record its step leaves unchanged.  Guards, action values and propositions
share their node set (see sema.py), so one compiler turns all three into
trees of closures.  A model's transitions are compiled on the first search
and kept on its CompiledSystem; a proposition's closure is kept on its root
node.  A transition applies its actions as SMV's next() does: every value
and payload reads the pre-state, a later write to the same slot wins, and a
later write to a channel replaces its whole record.

Counterexamples are replayable: applying the recorded labels from the initial
state reproduces the recorded states exactly.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Callable, NamedTuple

from . import ir
from .ir import CompiledSystem, ProcessAutomaton, Transition
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


class ProcState(NamedTuple):
    loc: int
    vars: tuple[Value, ...]


class RvState(NamedTuple):
    """Rendezvous channel: handshake flags and the one-slot value buffer."""

    ready: bool = False
    received: bool = False
    buf: tuple[Value, ...] | None = None


class BufState(NamedTuple):
    """Buffered channel: bounded FIFO of payload tuples."""

    queue: tuple[tuple[Value, ...], ...] = ()


ChanState = RvState | BufState


class GlobalState(NamedTuple):
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
# Compilation of expressions and transitions into closures
#
# Every closure takes (vars, chans, procs): the locals of the process taking
# the step (empty for a proposition), the channel records and the process
# states, all of the pre-state.

Fn = Callable[[tuple, tuple, tuple], Value]

_new = tuple.__new__  # builds a named tuple without its Python-level __new__
_IDLE = RvState()

_BINARY: dict[str, Callable[[Fn, Fn], Fn]] = {
    "&&": lambda l, r: lambda v, c, p: l(v, c, p) and r(v, c, p),
    "||": lambda l, r: lambda v, c, p: l(v, c, p) or r(v, c, p),
    "->": lambda l, r: lambda v, c, p: (not l(v, c, p)) or r(v, c, p),
    "==": lambda l, r: lambda v, c, p: l(v, c, p) == r(v, c, p),
    "!=": lambda l, r: lambda v, c, p: l(v, c, p) != r(v, c, p),
}


def _literal(e) -> Value | None:
    """The value of a literal node, or None for any other node."""
    return e.value if type(e) is PBool else e.ctor if type(e) is PEnum else None


def _compile(e) -> Fn:
    """A closure computing a guard or value (an ir.IrExpr) or a Prop, whose
    atoms read the locals of any process.  `&&`, `||` and `->` skip their
    right operand when the left decides them."""
    t = type(e)
    if t is PBin:
        return _BINARY[e.op](_compile(e.left), _compile(e.right))
    if t is PNot:
        sub = _compile(e.sub)
        return lambda v, c, p: not sub(v, c, p)
    if t is PAtom:
        proc, slot = e.proc, e.slot
        return lambda v, c, p: p[proc][1][slot]
    if t is ir.EVar:
        slot = e.slot
        return lambda v, c, p: v[slot]
    if t is PBool or t is PEnum:
        value = _literal(e)
        return lambda v, c, p: value
    if t is PTemporal:
        raise UnsupportedFormula("temporal operator in propositional position")
    chan = e.chan
    if t is ir.EChanReady:
        return lambda v, c, p: c[chan][0]
    if t is ir.EChanReceived:
        return lambda v, c, p: c[chan][1]
    if t is ir.EChanNotFull:
        capacity = e.capacity
        return lambda v, c, p: len(c[chan][0]) < capacity
    if t is ir.EChanNotEmpty:
        return lambda v, c, p: len(c[chan][0]) > 0
    index = e.index
    if t is ir.EChanBufItem:
        return lambda v, c, p: c[chan][2][index]
    assert t is ir.EChanHeadItem
    return lambda v, c, p: c[chan][0][0][index]


def _compile_payload(values: tuple) -> Fn:
    """A closure computing a payload tuple, which is one constant tuple when
    every value is a literal."""
    literals = tuple(map(_literal, values))
    if None not in literals:
        return lambda v, c, p: literals
    fns = tuple(map(_compile, values))
    return lambda v, c, p: tuple([f(v, c, p) for f in fns])


def _compile_chan_write(a: ir.Action) -> Fn:
    """A closure computing the channel's whole record after action `a`."""
    chan = a.chan
    if isinstance(a, ir.ABeginSend):
        payload = _compile_payload(a.payload)
        return lambda v, c, p: _new(RvState, (True, False, payload(v, c, p)))
    if isinstance(a, ir.AFinishSend):
        return lambda v, c, p: _IDLE
    if isinstance(a, ir.AMarkReceived):
        return lambda v, c, p: _new(RvState, (c[chan][0], True, c[chan][2]))
    if isinstance(a, ir.APush):
        payload = _compile_payload(a.payload)
        return lambda v, c, p: _new(BufState, (c[chan][0] + (payload(v, c, p),),))
    assert isinstance(a, ir.APop)
    return lambda v, c, p: _new(BufState, (c[chan][0][1:],))


# One compiled transition: (transition, guard or None for true, slot writes,
# channel writes, destination).
_Step = tuple[Transition, Fn | None, tuple[tuple[int, Fn], ...], tuple[tuple[int, Fn], ...], int]


def _compile_automaton(automaton: ProcessAutomaton) -> tuple[tuple[_Step, ...], ...]:
    """The compiled transitions leaving each location, in declaration order."""
    steps: list[list[_Step]] = [[] for _ in range(automaton.n_locations)]
    for t in automaton.transitions:
        sets = tuple(
            (a.slot, _compile(a.value)) for a in t.actions if isinstance(a, ir.ASetVar)
        )
        writes = tuple(
            (a.chan, _compile_chan_write(a)) for a in t.actions if not isinstance(a, ir.ASetVar)
        )
        guard = None if t.guard == ir.TRUE else _compile(t.guard)
        steps[t.src].append((t, guard, sets, writes, t.dst))
    return tuple(map(tuple, steps))


def _compiled(cs: CompiledSystem) -> tuple[tuple[tuple[_Step, ...], ...], ...]:
    """Each automaton's compiled transitions, built on first use and kept on
    `cs`, so commands that never search never build them."""
    table = cs.__dict__.get("_compiled")
    if table is None:
        table = cs.__dict__["_compiled"] = tuple(map(_compile_automaton, cs.automata))
    return table


# ---------------------------------------------------------------------------
# Successors


Succ = tuple[int | None, str, GlobalState]


def successor_transitions(
    cs: CompiledSystem, state: GlobalState
) -> list[tuple[int, Transition, GlobalState]]:
    """Enabled process transitions in (process index, declaration) order."""
    out = []
    procs, chans = state
    for i, (steps, proc) in enumerate(zip(_compiled(cs), procs)):
        loc, pre = proc
        for t, guard, sets, writes, dst in steps[loc]:
            if guard is not None and not guard(pre, chans, procs):
                continue
            vars_ = pre
            if sets:
                vars_ = list(pre)
                for slot, value in sets:
                    vars_[slot] = value(pre, chans, procs)
                vars_ = tuple(vars_)
            post = chans
            if writes:
                post = list(chans)
                for chan, write in writes:
                    post[chan] = write(pre, chans, procs)
                post = tuple(post)
            new_procs = list(procs)
            new_procs[i] = _new(ProcState, (dst, vars_))
            out.append((i, t, _new(GlobalState, (tuple(new_procs), post))))
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

    The formula is compiled on its first evaluation and kept on its root node.
    A variable of a shutdown process keeps (and reports) its last value.
    """
    fn = p.__dict__.get("_compiled")
    if fn is None:
        fn = p.__dict__["_compiled"] = _compile(p)
    return fn((), state[1], state[0])


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
