"""Explicit-state verification of the composed system.

The woven automata run under interleaving semantics: one enabled transition
of one process per global step.  A globally deadlocked state gets a single
self-loop (stutter), so every maximal run is infinite and liveness questions
are well-posed.

Supported spec shapes are G(p), F(p), F(G(p)) and G(F(p)) with p
propositional.  Lowering unrolls loops, so every process automaton is
acyclic, and it numbers locations so that every transition leads forward
(checked once per model, when its transitions are compiled).  So the only
cycles of the product are the stutter self-loops at global deadlock.
Every run therefore ends by stuttering forever in one deadlocked state, and
each pattern is a reachability question:

* G(p) fails iff a !p state is reachable;
* F(p) fails iff a deadlocked !p state is reachable through !p states only;
* F(G(p)) and G(F(p)) fail iff a deadlocked !p state is reachable.

One breadth-first search with parent pointers answers all four, so every
counterexample is shortest: a finite path for G(p), and for the others that
path plus one stutter step as the loop of a lasso.  Weak process fairness
cannot change a verdict, since no process is enabled at a deadlock, so there
is no fairness setting.

The public state API uses named tuples (a GlobalState of ProcStates and
channel records).  Guards, action values and propositions share their node
set (see sema.py), so one recursive evaluator, `_eval`, computes all three.
A model's transitions per source location, and the channels each location
reads, are computed on the first search and kept on its CompiledSystem.  A
transition applies its actions as SMV's next() does: every value and payload
reads the pre-state, a later write to the same slot wins, and a later write
to a channel replaces its whole record.

The search itself stores collapsed states, as SPIN's COLLAPSE mode does,
packed into one int as SPIN packs its state vector.  A key has one 32-bit
field per process record and one per channel record, each the record's id
in a table that lives as long as the search.  A process's enabled moves
depend only on its local view: its own record and the channels its location
reads.  The view is the key under a mask that the process's record picks,
one mask per location, built once per model.  A proposition reads only the
slots of its atoms, so each record of a process it reads gets a class id,
one per valuation of those slots, and the key holds one more 32-bit field
per such process, above every record field, with its class id.  A move
changes its own record, channels its location reads, and its class id,
which its own record determines: a function of its view.  So each process
has a move table keyed by its view, holding one delta per move, and a
successor is the key plus a delta.
A miss computes the moves of that one process from its record and the
channel records, and interns the records they write.  The proposition is
memoized on the class fields, `key >> top`, so `eval_prop` runs once per
valuation of its atoms.  An id that would not fit its field raises
MemoryError: that many records could not be stored.  The search keeps only
each key's parent key.  A counterexample decodes the path and takes, at
each step, the first step of `successors` that reaches the next state,
which is the one the search kept.

Counterexamples are replayable: applying the recorded labels from the initial
state reproduces the recorded states exactly.  A verdict is its counterexample,
or None when the spec holds, and the number of states explored; PASS and FAIL
are read off the counterexample.  A step keeps its process index, and the
trace printer looks its name up.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Callable, NamedTuple

from . import ir
from .ir import CompiledSystem, ProcessAutomaton, Transition
from .record import record
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
# Evaluation of expressions and transitions


def _eval(e, vars: tuple, chans: tuple, procs: tuple) -> Value:
    """The value of a guard or value (an ir.IrExpr) or a Prop, from the locals
    of the process taking the step (empty for a proposition), the channel
    records and the process records (empty for a guard or value), all of the
    pre-state.  `&&`, `||` and `->` skip their right operand when the left
    decides them."""
    t = type(e)
    if t is PBin:
        op, left = e.op, _eval(e.left, vars, chans, procs)
        if op == "&&":
            return left and _eval(e.right, vars, chans, procs)
        if op == "||":
            return left or _eval(e.right, vars, chans, procs)
        if op == "->":
            return (not left) or _eval(e.right, vars, chans, procs)
        right = _eval(e.right, vars, chans, procs)
        return left == right if op == "==" else left != right
    if t is PAtom:
        return procs[e.proc][1][e.slot]
    if t is ir.EVar:
        return vars[e.slot]
    if t is PNot:
        return not _eval(e.sub, vars, chans, procs)
    if t is PBool:
        return e.value
    if t is PEnum:
        return e.ctor
    if t is PTemporal:
        raise UnsupportedFormula("temporal operator in propositional position")
    chan = chans[e.chan]
    if t is ir.EChanReady:
        return chan[0]
    if t is ir.EChanReceived:
        return chan[1]
    if t is ir.EChanNotFull:
        return len(chan[0]) < e.capacity
    if t is ir.EChanNotEmpty:
        return len(chan[0]) > 0
    if t is ir.EChanBufItem:
        return chan[2][e.index]
    assert t is ir.EChanHeadItem
    return chan[0][0][e.index]


def _apply(t: Transition, pre: tuple, chans: tuple) -> tuple[tuple, tuple]:
    """The locals and channel records after transition `t` from locals `pre`
    and records `chans`.  Every value and payload reads the pre-state, a later
    write to the same slot wins, and a channel write replaces the whole
    record; a record no action writes is the pre-state's object."""
    vars_, post = list(pre), list(chans)
    for a in t.actions:
        kind = type(a)
        if kind is ir.ASetVar:
            vars_[a.slot] = _eval(a.value, pre, chans, ())
            continue
        c = a.chan
        if kind is ir.ABeginSend:
            post[c] = RvState(True, False, tuple(_eval(v, pre, chans, ()) for v in a.payload))
        elif kind is ir.AFinishSend:
            post[c] = RvState()
        elif kind is ir.AMarkReceived:
            post[c] = RvState(chans[c].ready, True, chans[c].buf)
        elif kind is ir.APush:
            payload = tuple(_eval(v, pre, chans, ()) for v in a.payload)
            post[c] = BufState(chans[c].queue + (payload,))
        else:
            assert kind is ir.APop
            post[c] = BufState(chans[c].queue[1:])
    return tuple(vars_), tuple(post)


def _moves(leaving: tuple, proc: ProcState, chans: tuple) -> list[tuple[Transition, tuple, tuple]]:
    """The enabled transitions of the process with record `proc`, in
    declaration order, each with its post-locals and post-channels.
    `leaving` holds the process's transitions per source location."""
    loc, pre = proc
    return [(t, *_apply(t, pre, chans)) for t in leaving[loc] if _eval(t.guard, pre, chans, ())]


def _leaving(automaton: ProcessAutomaton) -> tuple[tuple[Transition, ...], ...]:
    """The transitions leaving each location, in declaration order."""
    leaving: list[list[Transition]] = [[] for _ in range(automaton.n_locations)]
    for t in automaton.transitions:
        leaving[t.src].append(t)
    return tuple(map(tuple, leaving))


def _require_acyclic(cs: CompiledSystem) -> None:
    """Raise ValueError at the first transition that does not lead forward.

    Deciding liveness by deadlock reachability is sound only when the stutter
    self-loops are the sole cycles of the product, which holds when every
    automaton is acyclic.  Lowering numbers locations in a topological order,
    so an automaton is acyclic when every transition has `src < dst`.
    """
    for automaton in cs.automata:
        for t in automaton.transitions:
            if t.dst <= t.src:
                raise ValueError(
                    f"process {automaton.name}: transition {t.src} -> {t.dst} ({t.label}) "
                    "does not lead forward and may close a cycle; "
                    "the checker needs acyclic automata numbered in topological order"
                )


def _nodes(e):
    """A guard, value or proposition and every node under it."""
    todo = [e]
    while todo:
        e = todo.pop()
        yield e
        if type(e) is PBin:
            todo += (e.right, e.left)
        elif type(e) is PNot or type(e) is PTemporal:
            todo.append(e.sub)


def _read_sets(automaton: ProcessAutomaton) -> tuple[tuple[int, ...], ...]:
    """The channels each location reads: those that an edge leaving it uses
    in its guard, a value, a payload or a channel action."""
    reads: list[set[int]] = [set() for _ in range(automaton.n_locations)]
    for t in automaton.transitions:
        exprs = [t.guard]
        for a in t.actions:
            if isinstance(a, ir.ASetVar):
                exprs.append(a.value)
            else:
                reads[t.src].add(a.chan)
                exprs += getattr(a, "payload", ())
        reads[t.src].update(n.chan for e in exprs for n in _nodes(e) if hasattr(n, "chan"))
    return tuple(tuple(sorted(r)) for r in reads)


# A collapsed key packs one id per record into a field this wide (see
# _Collapsed).  An id never reaches 2**FIELD_BITS: that many records of one
# process or channel could not be stored.
FIELD_BITS = 32
FIELD = (1 << FIELD_BITS) - 1


class _Compiled(NamedTuple):
    # Per process, per location: the transitions leaving it.
    leaving: tuple[tuple[tuple[Transition, ...], ...], ...]
    # Per process, per location: the mask of its view in a collapsed key,
    # i.e. the fields of its own record and of the channels the location
    # reads.
    masks: tuple[tuple[int, ...], ...]


def _compiled(cs: CompiledSystem) -> _Compiled:
    """Each automaton's transitions and view masks per location, built on
    first use and kept on `cs`, so commands that never search never build
    them.  Building them first checks that every automaton is acyclic."""
    table = cs.__dict__.get("_compiled")
    if table is None:
        _require_acyclic(cs)
        leaving = tuple(map(_leaving, cs.automata))
        n_procs = len(cs.automata)
        masks = tuple(
            tuple(
                sum(FIELD << FIELD_BITS * pos for pos in (i, *(n_procs + c for c in r)))
                for r in _read_sets(automaton)
            )
            for i, automaton in enumerate(cs.automata)
        )
        table = cs.__dict__["_compiled"] = _Compiled(leaving, masks)
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
    for i, (leaving, proc) in enumerate(zip(_compiled(cs).leaving, procs)):
        for t, vars_, post in _moves(leaving, proc, chans):
            moved = procs[:i] + (ProcState(t.dst, vars_),) + procs[i + 1 :]
            out.append((i, t, GlobalState(moved, post)))
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
    return _eval(p, (), state[1], state[0])


# ---------------------------------------------------------------------------
# Spec patterns


def extract_pattern(formula: Prop) -> tuple[str, Prop]:
    """Classify a formula as G / F / FG / GF over a propositional core."""
    ops: list[str] = []
    f = formula
    while isinstance(f, PTemporal):
        if not ops or ops[-1] != f.op:  # collapse GG -> G, FF -> F
            ops.append(f.op)
        f = f.sub
    if any(type(n) is PTemporal for n in _nodes(f)):
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


@record
class Step:
    proc: int | None  # None for the stutter step
    label: str
    state: GlobalState


@record
class Counterexample:
    initial: GlobalState
    prefix: tuple[Step, ...]
    loop: tuple[Step, ...] | None  # None: finite safety trace; else a lasso


@record
class Verdict:
    counterexample: Counterexample | None  # None: the spec holds
    # Distinct states the search had discovered when it stopped.
    states_explored: int

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def result(self) -> Result:
        return Result.PASS if self.counterexample is None else Result.FAIL


# ---------------------------------------------------------------------------
# Collapsed states


class _Collapsed:
    """One search's collapsed state space: keys, their records, and the move
    and proposition memos.  A key is one int of FIELD_BITS-wide fields: one
    id per process record, in process order, then one per channel record,
    then, from bit `top` up, one class id per process the atoms of the
    proposition read.  Everything here lives as long as the search."""

    def __init__(self, cs: CompiledSystem, prop: Prop) -> None:
        self.cs = cs
        self.prop = prop
        self.n_procs = n_procs = len(cs.automata)
        self.leaving, self.loc_masks = _compiled(cs)
        width = n_procs + len(cs.instance.channels)
        self.top = FIELD_BITS * width
        self.shifts = range(0, self.top, FIELD_BITS)  # per key position
        # Per key position: record -> id, and id -> record.
        self.ids: list[dict] = [{} for _ in range(width)]
        self.records: list[list] = [[] for _ in range(width)]
        # Per process: id -> mask of its view, and view -> its moves, each
        # move the delta it adds to a key, in successor order.
        self.mask_of: list[list[int]] = [[] for _ in range(n_procs)]
        self.moves: list[dict] = [{} for _ in range(n_procs)]
        self.per_proc = tuple(zip(range(n_procs), self.shifts, self.mask_of, self.moves))
        # Per process the atoms of `prop` read: the getter of the slots they
        # read, the shift of its class field, valuation -> class id, and
        # id -> class id.  A process has no more class ids than record ids,
        # so its class ids fit a field too.
        atoms = sorted(_atoms(prop))
        self.atoms = {i: itemgetter(*(s for j, s in atoms if j == i)) for i, _ in atoms}
        self.class_shift = {i: self.top + FIELD_BITS * j for j, i in enumerate(self.atoms)}
        self.class_ids: dict[int, dict] = {i: {} for i in self.atoms}
        self.classes: list[list[int]] = [[] for _ in range(n_procs)]
        self.props: dict = {}

    def clear(self) -> None:
        tables = self.ids + self.records + self.mask_of + self.moves + self.classes
        for table in tables + list(self.class_ids.values()):
            table.clear()
        self.props.clear()

    def intern(self, pos: int, record) -> int:
        ids = self.ids[pos]
        n = ids.get(record)
        if n is None:
            n = len(ids)
            if n > FIELD:  # so many records could not be stored anyway
                raise MemoryError(f"record id {n} of key position {pos} does not fit its field")
            ids[record] = n
            self.records[pos].append(record)
            if pos < self.n_procs:
                self.mask_of[pos].append(self.loc_masks[pos][record[0]])
                if pos in self.atoms:
                    valuation, classes = self.atoms[pos](record[1]), self.class_ids[pos]
                    self.classes[pos].append(classes.setdefault(valuation, len(classes)))
        return n

    def encode(self, state: GlobalState) -> int:
        ids = list(map(self.intern, range(len(self.ids)), state[0] + state[1]))
        key = sum(n << shift for n, shift in zip(ids, self.shifts))
        return key + sum(self.classes[i][ids[i]] << s for i, s in self.class_shift.items())

    def decode(self, key: int) -> GlobalState:
        records = tuple(rs[(key >> s) & FIELD] for rs, s in zip(self.records, self.shifts))
        return GlobalState(records[: self.n_procs], records[self.n_procs :])

    def _moves_of(self, i: int, key: int) -> tuple[int, ...]:
        """Process i's moves at `key`, each the delta that adds it: the change
        of its own record, of its class id if the proposition reads it, and of
        every channel whose record the move replaced.  A replaced record equal
        to the old one re-interns to the same id.  Each field a move changes
        is in the process's view, or is its class id, which its own record
        determines, so the delta depends on the view only."""
        n, intern, records, classes = self.n_procs, self.intern, self.records, self.classes[i]
        shift, chan_shifts = self.shifts[i], self.shifts[n:]
        own = (key >> shift) & FIELD
        old_ids = [(key >> s) & FIELD for s in chan_shifts]
        chans = tuple(map(list.__getitem__, records[n:], old_ids))
        class_shift = self.class_shift.get(i)
        found = []
        for t, vars_, post in _moves(self.leaving[i], records[i][own], chans):
            new = intern(i, ProcState(t.dst, vars_))
            delta = (new - own) << shift
            if class_shift is not None:
                delta += (classes[new] - classes[own]) << class_shift
            for pos, s, record, old_record, old in zip(
                range(n, len(records)), chan_shifts, post, chans, old_ids
            ):
                if record is not old_record:
                    delta += (intern(pos, record) - old) << s
            found.append(delta)
        return tuple(found)

    def successor_keys(self, key: int) -> list[int]:
        """The keys of the process steps `successors` takes from the decoded
        key, in its order; empty at a deadlock.  `_search` does the same
        lookups inline."""
        out = []
        for i, shift, mask_of, moves in self.per_proc:
            view = key & mask_of[(key >> shift) & FIELD]
            deltas = moves.get(view)
            if deltas is None:
                deltas = moves[view] = self._moves_of(i, key)
            out += [key + delta for delta in deltas]
        return out

    def negation(self) -> Callable[[int], bool]:
        """`not eval_prop(prop, state)` as a function of a key, memoized on
        the key's class fields, `key >> top`, so `eval_prop` runs once per
        valuation of the atoms.  A proposition without atoms has no class
        field: `key >> top` is 0."""
        prop, decode, memo, top = self.prop, self.decode, self.props, self.top

        def notp(key: int) -> bool:
            value = memo.get(key >> top)
            if value is None:
                value = memo[key >> top] = not eval_prop(prop, decode(key))
            return value

        return notp

    def path_to(self, parents: dict, key: int) -> tuple[Step, ...]:
        """The steps from the initial key to `key`.  The search kept, for each
        key, the first step of `successors` from its parent that reaches it,
        so that is the step taken here."""
        steps: list[Step] = []
        while parents[key] is not None:  # a path never stutters
            key, state = parents[key], self.decode(key)
            steps.append(next(
                Step(i, label, state)
                for i, label, nxt in successors(self.cs, self.decode(key))
                if nxt == state
            ))
        return tuple(reversed(steps))


def _atoms(p: Prop) -> set[tuple[int, int]]:
    """The (process, slot) pairs a proposition's atoms read."""
    return {(n.proc, n.slot) for n in _nodes(p) if type(n) is PAtom}


# ---------------------------------------------------------------------------
# Search: one breadth-first search serves every pattern


def _search(space: _Collapsed, init: int, pattern: str, max_states: int) -> Verdict:
    """Shortest path from key `init` to a key that refutes `pattern`, found
    level by level.

    G: a !p key, tested when it is expanded.  F: a deadlocked key reached
    through !p keys only, so successors where p holds are not kept.  FG and
    GF: a deadlocked !p key.  A key is deadlocked when no process moves from
    it; the path to it, with one stutter step at its state as the loop, is
    the counterexample.  A proposition without atoms has one value in every
    state: G tests it at `init` only, and F prunes no successor (its search
    ends at once if p holds at `init`).  A MemoryError leaves with the
    number of states found in its `states` attribute.
    """
    notp = space.negation()
    safety, through_notp = pattern == "G", pattern == "F"
    test_each = safety and (bool(space.atoms) or notp(init))
    prune = through_notp and bool(space.atoms)
    per_proc, moves_of = space.per_proc, space._moves_of
    parents: dict[int, int | None] = {init: None}
    level = [init] if not through_notp or notp(init) else []
    next_level: list[int] = []
    try:
        while level:
            next_level = []
            for key in level:
                if test_each and notp(key):
                    return _refuted(space, parents, init, key, lasso=False)
                moved = False
                for i, shift, mask_of, moves in per_proc:
                    view = key & mask_of[(key >> shift) & FIELD]
                    deltas = moves.get(view)
                    if deltas is None:
                        deltas = moves[view] = moves_of(i, key)
                    if deltas:
                        moved = True
                    for delta in deltas:
                        nxt = key + delta
                        if nxt in parents or prune and not notp(nxt):
                            continue
                        parents[nxt] = key
                        if len(parents) > max_states:
                            raise StateLimitExceeded(max_states)
                        next_level.append(nxt)
                if not moved and not safety and (through_notp or notp(key)):
                    return _refuted(space, parents, init, key, lasso=True)
            level = next_level
    except MemoryError as exc:
        count = len(parents)
        parents.clear()  # room to attach the count for the caller's diagnostic
        level.clear()
        next_level.clear()
        space.clear()
        exc.states = count
        raise
    return Verdict(None, len(parents))


def _refuted(space: _Collapsed, parents: dict, init: int, key: int, lasso: bool) -> Verdict:
    """The FAIL verdict whose counterexample is the path to `key`; with
    `lasso`, one stutter step at its state closes it into a loop."""
    loop = (Step(None, STUTTER_LABEL, space.decode(key)),) if lasso else None
    cex = Counterexample(space.decode(init), space.path_to(parents, key), loop)
    return Verdict(cex, len(parents))


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
    space = _Collapsed(cs, prop)
    return _search(space, space.encode(initial_state(cs)), pattern, max_states)


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
    names = [p.name for p in cs.instance.processes]
    lines = ["counterexample:"]
    prev_fields = _state_fields(cs, cex.initial)
    lines.append("  initial: " + ", ".join(f"{k}={v}" for k, v in prev_fields.items()))
    steps = list(cex.prefix) + list(cex.loop or ())
    for k, step in enumerate(steps, start=1):
        marker = ""
        if cex.loop and k == len(cex.prefix) + 1:
            marker = " (loop starts)"
        name = STUTTER_NAME if step.proc is None else names[step.proc]
        lines.append(f"#{k} {name}: {step.label}{marker}")
        fields = _state_fields(cs, step.state)
        for key, value in fields.items():
            if prev_fields[key] != value:
                lines.append(f"    {key} = {value}")
        prev_fields = fields
    if cex.loop:
        lines.append(f"LOOP back to step #{len(cex.prefix)}")
    return "\n".join(lines) + "\n"
