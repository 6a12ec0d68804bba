"""Lowering of process bodies into guarded transition automata.

Each statement contributes a fragment of locations and transitions; a process
automaton is the concatenation of its statements' fragments.  Most statements
are one edge to a fresh location (`_Builder.step`); assignments, initialized
`var`s and receive expressions share one store path, and `peek` is the
buffered `recv` without its pop.  Rendezvous
communication uses the three-variable handshake (ready flag, received flag,
one-slot value buffer): a send occupies two transitions through an
intermediate location, a receive is a single transition, and the sender's
final step resets the flags so the channel can be reused.  Guards and values
are built from sema's literal, not and binary nodes plus EVar and six channel
reads, so the checker evaluates them and ltl propositions alike, and dump-ir
prints them with sema.render and a table of its nine leaf spellings.

Each edge is stated once: its fault tag follows from its kind
(`timeout.fail`, `drop` and `shutdown` are the fault kinds), and the weaver
finds every send by its `send.fire` or `send.buffered` edge.

Loops are unrolled (array bindings are static after instantiation), so every
automaton is acyclic: no transition leads back to a location its process has
already left.  Location numbers follow first appearance, not a topological
order: a branch that joins an earlier branch's exit jumps to a lower number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import sema
from . import syntax as ast
from .errors import NO_POS, Pos
from .pretty import print_expr
from .sema import PBin, PBool, PEnum, PNot, SlotInfo, SystemInstance, Value, render, render_value

NORMAL = "normal"
TIMEOUT = "timeout"
DROP = "drop"
SHUTDOWN = "shutdown"


# ---------------------------------------------------------------------------
# Guard and value expressions over (process locals, channel states): sema's
# PBool, PEnum, PNot and PBin, plus these


@dataclass(frozen=True)
class EVar:
    slot: int


@dataclass(frozen=True)
class EChanReady:
    chan: int


@dataclass(frozen=True)
class EChanReceived:
    chan: int


@dataclass(frozen=True)
class EChanBufItem:
    chan: int
    index: int


@dataclass(frozen=True)
class EChanNotFull:
    chan: int
    capacity: int


@dataclass(frozen=True)
class EChanNotEmpty:
    chan: int


@dataclass(frozen=True)
class EChanHeadItem:
    chan: int
    index: int


IrExpr = (
    PBool | PEnum | EVar | PNot | PBin
    | EChanReady | EChanReceived | EChanBufItem
    | EChanNotFull | EChanNotEmpty | EChanHeadItem
)

TRUE = PBool(True)

_FAULT_TAGS = {"timeout.fail": TIMEOUT, "drop": DROP, "shutdown": SHUTDOWN}


# ---------------------------------------------------------------------------
# Actions, applied atomically with the guard check as SMV's next() applies
# them: every value and payload reads the pre-state, and a later write to the
# same slot wins


@dataclass(frozen=True)
class ASetVar:
    slot: int
    value: IrExpr


@dataclass(frozen=True)
class ABeginSend:
    """ready := true; value buffer := payload."""

    chan: int
    payload: tuple[IrExpr, ...]


@dataclass(frozen=True)
class AFinishSend:
    """ready := false; received := false; buffer cleared (channel reusable)."""

    chan: int


@dataclass(frozen=True)
class AMarkReceived:
    chan: int


@dataclass(frozen=True)
class APush:
    chan: int
    payload: tuple[IrExpr, ...]


@dataclass(frozen=True)
class APop:
    chan: int


Action = ASetVar | ABeginSend | AFinishSend | AMarkReceived | APush | APop

# One outgoing edge of a branch: (guard, actions, kind).
_Branch = tuple[IrExpr, tuple[Action, ...], str]


# ---------------------------------------------------------------------------
# Automata


@dataclass(frozen=True)
class Transition:
    src: int
    dst: int
    guard: IrExpr
    actions: tuple[Action, ...]
    kind: str  # e.g. "send.fire", "recv", "if.then", "shutdown"
    desc: str  # statement rendering for traces
    pos: Pos

    @property
    def tag(self) -> str:
        """normal | timeout | drop | shutdown, fixed by the kind."""
        return _FAULT_TAGS.get(self.kind, NORMAL)

    @cached_property
    def label(self) -> str:
        pos_part = "" if self.pos == NO_POS else f" @{self.pos}"
        return f"{self.desc}{pos_part} [{self.kind}]"


@dataclass(frozen=True)
class ProcessAutomaton:
    name: str
    n_locations: int
    entry: int
    terminal: int
    transitions: tuple[Transition, ...]
    locals: tuple[SlotInfo, ...]
    shutdown_loc: int | None = None

    @cached_property
    def by_src(self) -> dict[int, tuple[Transition, ...]]:
        index: dict[int, list[Transition]] = {}
        for t in self.transitions:
            index.setdefault(t.src, []).append(t)
        return {src: tuple(ts) for src, ts in index.items()}

    @property
    def initial_locals(self) -> tuple[Value, ...]:
        return tuple(slot.zero for slot in self.locals)


@dataclass(frozen=True)
class CompiledSystem:
    """A system instance together with one automaton per process, in order."""

    instance: SystemInstance
    automata: tuple[ProcessAutomaton, ...]


# ---------------------------------------------------------------------------
# Builder


class _Builder:
    def __init__(self) -> None:
        self.next_loc = 0
        self.transitions: list[Transition] = []
        self.alias: dict[int, int] = {}

    def fresh(self) -> int:
        loc = self.next_loc
        self.next_loc += 1
        return loc

    def resolve(self, loc: int) -> int:
        while loc in self.alias:
            loc = self.alias[loc]
        return loc

    def merge(self, loc: int, into: int) -> int:
        """Identify two locations (used to join if/choice branches)."""
        loc, into = self.resolve(loc), self.resolve(into)
        if loc != into:
            self.alias[loc] = into
        return into

    def add(self, src, dst, guard, actions, kind, desc, pos) -> None:
        self.transitions.append(Transition(src, dst, guard, tuple(actions), kind, desc, pos))

    def step(self, src, guard, actions, kind, desc, pos) -> int:
        """Add one edge from src to a fresh location and return that location."""
        dst = self.fresh()
        self.add(src, dst, guard, actions, kind, desc, pos)
        return dst

    def build(
        self, name: str, entry: int, terminal: int, locals_: tuple[SlotInfo, ...]
    ) -> ProcessAutomaton:
        # Renumber locations compactly and deterministically: entry first,
        # then in order of appearance along the transition list.
        # The terminal is the destination of some edge: an empty body still
        # lowers to one noop step.
        numbering: dict[int, int] = {self.resolve(entry): 0}
        for t in self.transitions:
            for loc in (self.resolve(t.src), self.resolve(t.dst)):
                numbering.setdefault(loc, len(numbering))
        transitions = tuple(
            replace(t, src=numbering[self.resolve(t.src)], dst=numbering[self.resolve(t.dst)])
            for t in self.transitions
        )
        return ProcessAutomaton(
            name=name,
            n_locations=len(numbering),
            entry=0,
            terminal=numbering[self.resolve(terminal)],
            transitions=transitions,
            locals=locals_,
        )


# ---------------------------------------------------------------------------
# Lowering


class _Lowerer:
    def __init__(self, system: SystemInstance, proc: sema.ProcessDecl) -> None:
        self.system = system
        self.proc = proc
        self.info = system.template_info(proc)
        self.builder = _Builder()
        self.loop_env: dict[int, int] = {}  # id(For node) -> current channel index

    # -- name resolution against the instantiated bindings

    def channel_of(self, expr: ast.Expr) -> int:
        binding = self.info.resolutions[id(expr)]
        if isinstance(binding, sema.ChannelParam):
            bound = self.proc.chan_bindings[binding.name]
            assert isinstance(bound, int)
            return bound
        assert isinstance(binding, sema.LoopChannel)
        return self.loop_env[binding.for_id]

    def channel_list_of(self, expr: ast.Expr) -> tuple[int, ...]:
        binding = self.info.resolutions[id(expr)]
        assert isinstance(binding, sema.ChannelArrayParam)
        bound = self.proc.chan_bindings[binding.name]
        assert isinstance(bound, tuple)
        return bound

    def chan_name(self, chan: int) -> str:
        return self.system.channels[chan].name

    def chan_type(self, chan: int) -> sema.ChannelType:
        return self.system.channels[chan].type

    def compile_expr(self, expr: ast.Expr) -> IrExpr:
        if isinstance(expr, ast.BoolLit):
            return PBool(expr.value)
        if isinstance(expr, ast.Name):
            binding = self.info.resolutions[id(expr)]
            if isinstance(binding, sema.LocalVar):
                return EVar(binding.slot)
            if isinstance(binding, sema.ValueParam):
                return _const_to_expr(self.proc.const_bindings[binding.name])
            assert isinstance(binding, sema.EnumConst)
            return PEnum(binding.ctor)
        if isinstance(expr, ast.Unary):
            return PNot(self.compile_expr(expr.operand))
        assert isinstance(expr, ast.Binary), f"cannot compile {expr!r}"
        return PBin(expr.op, self.compile_expr(expr.left), self.compile_expr(expr.right))

    # -- fragments; every lowering maps an entry location to a returned exit

    def lower_block(self, block: ast.Block, entry: int) -> int:
        if not block.stmts:
            return self.builder.step(entry, TRUE, (), "noop", "skip", block.pos)
        loc = entry
        for stmt in block.stmts:
            loc = self.lower_stmt(stmt, loc)
        return loc

    def lower_stmt(self, stmt: ast.Stmt, entry: int) -> int:
        if isinstance(stmt, ast.VarDecl):
            return self.lower_var(stmt, entry)
        if isinstance(stmt, ast.Assign):
            slot = self.info.assign_slots[id(stmt)]
            return self.lower_store(slot, stmt.value, stmt.name, "assign", stmt.pos, entry)
        if isinstance(stmt, ast.Send):
            return self.lower_send(stmt, entry)
        if isinstance(stmt, ast.Recv):
            return self.lower_recv(stmt, entry)
        if isinstance(stmt, ast.If):
            return self.lower_if(stmt, entry)
        if isinstance(stmt, ast.For):
            return self.lower_for(stmt, entry)
        if isinstance(stmt, ast.Choice):
            return self.lower_choice(stmt, entry)
        assert isinstance(stmt, ast.ExprStmt)
        return self.builder.step(entry, TRUE, (), "expr", print_expr(stmt.expr), stmt.pos)

    def lower_var(self, stmt: ast.VarDecl, entry: int) -> int:
        slot = self.info.decl_slots[id(stmt)]
        lhs = f"var {stmt.name}"
        if stmt.init is not None:
            return self.lower_store(slot, stmt.init, lhs, "var", stmt.pos, entry)
        zero = ASetVar(slot, _const_to_expr(self.info.slots[slot].zero))
        return self.builder.step(entry, TRUE, (zero,), "var", lhs, stmt.pos)

    def lower_store(
        self, slot: int, rhs: ast.Expr, lhs: str, kind: str, pos: Pos, entry: int
    ) -> int:
        """`lhs = rhs` into a slot.  A timeout_recv or nonblock_recv on the
        right has two edges that join at once, each storing its outcome."""
        if not isinstance(rhs, ast.RecvExpr):
            store = ASetVar(slot, self.compile_expr(rhs))
            return self.builder.step(entry, TRUE, (store,), kind, f"{lhs} = {print_expr(rhs)}", pos)
        text, taken, untaken = self._branches(rhs)
        exit_ = self.builder.fresh()
        for (guard, actions, branch_kind), result in ((taken, True), (untaken, False)):
            stored = actions + (ASetVar(slot, PBool(result)),)
            self.builder.add(entry, exit_, guard, stored, branch_kind, f"{lhs} = {text}", pos)
        return exit_

    def lower_send(self, stmt: ast.Send, entry: int) -> int:
        chan = self.channel_of(stmt.channel)
        payload = tuple(self.compile_expr(v) for v in stmt.values)
        values = ", ".join(print_expr(v) for v in stmt.values)
        desc = f"send({self.chan_name(chan)}, {values})"
        step = self.builder.step
        ty = self.chan_type(chan)
        if ty.is_buffered:
            return step(entry, EChanNotFull(chan, ty.capacity), (APush(chan, payload),),
                        "send.buffered", desc, stmt.pos)
        mid = step(entry, PNot(EChanReady(chan)), (ABeginSend(chan, payload),),
                   "send.fire", desc, stmt.pos)
        return step(mid, EChanReceived(chan), (AFinishSend(chan),), "send.done", desc, stmt.pos)

    def _recv_guard(self, chan: int) -> IrExpr:
        if self.chan_type(chan).is_buffered:
            return EChanNotEmpty(chan)
        return PBin("&&", EChanReady(chan), PNot(EChanReceived(chan)))

    def _recv_actions(self, chan: int, slots: tuple[int, ...]) -> tuple[Action, ...]:
        if self.chan_type(chan).is_buffered:
            copies: tuple[Action, ...] = tuple(
                ASetVar(slot, EChanHeadItem(chan, i)) for i, slot in enumerate(slots)
            )
            return copies + (APop(chan),)
        copies = tuple(ASetVar(slot, EChanBufItem(chan, i)) for i, slot in enumerate(slots))
        return copies + (AMarkReceived(chan),)

    def lower_recv(self, stmt: ast.Recv, entry: int) -> int:
        """recv, or peek: the buffered recv without its trailing pop (sema
        rejects a peek on a rendezvous channel)."""
        chan = self.channel_of(stmt.channel)
        slots = self.info.target_slots[id(stmt)]
        form = stmt.form
        desc = f"{form}({self.chan_name(chan)}, {', '.join(stmt.targets)})"
        actions = self._recv_actions(chan, slots)
        if form == "peek":
            actions = actions[:-1]
        return self.builder.step(entry, self._recv_guard(chan), actions, form, desc, stmt.pos)

    def _branches(self, cond: ast.Expr) -> tuple[str, _Branch, _Branch]:
        """A condition's text and its taken and untaken edges."""
        if not isinstance(cond, ast.RecvExpr):
            guard = self.compile_expr(cond)
            return print_expr(cond), (guard, (), "if.then"), (PNot(guard), (), "if.else")
        chan = self.channel_of(cond.channel)
        slots = self.info.target_slots[id(cond)]
        text = f"{cond.form}({self.chan_name(chan)}, {', '.join(cond.targets)})"
        guard = self._recv_guard(chan)
        if cond.form == "timeout_recv":
            taken = (guard, self._recv_actions(chan, slots), "timeout.ok")
            # The failure branch is unconditionally enabled: delivery may miss
            # its window even when a sender stands ready.
            return text, taken, (TRUE, (), "timeout.fail")
        taken = (guard, self._recv_actions(chan, slots), "nonblock.ok")
        return text, taken, (PNot(guard), (), "nonblock.fail")

    def lower_if(self, stmt: ast.If, entry: int) -> int:
        text, taken, untaken = self._branches(stmt.cond)
        desc = f"if {text}"
        then_entry = self.builder.step(entry, *taken, desc, stmt.pos)
        exit_ = self.lower_block(stmt.then, then_entry)
        if stmt.els is None:
            self.builder.add(entry, exit_, *untaken, desc, stmt.pos)
        else:
            else_entry = self.builder.step(entry, *untaken, desc, stmt.pos)
            self.builder.merge(self.lower_block(stmt.els, else_entry), exit_)
        return exit_

    def lower_for(self, stmt: ast.For, entry: int) -> int:
        channels = self.channel_list_of(stmt.iterable)
        if not channels:
            return self.builder.step(entry, TRUE, (), "noop", "for (empty)", stmt.pos)
        loc = entry
        for chan in channels:
            self.loop_env[id(stmt)] = chan
            loc = self.lower_block(stmt.body, loc)
        del self.loop_env[id(stmt)]
        return loc

    def lower_choice(self, stmt: ast.Choice, entry: int) -> int:
        # Alternatives branch from the shared entry, so an alternative is
        # selectable exactly when its first statement is enabled.
        exit_ = self.lower_block(stmt.blocks[0], entry)
        for block in stmt.blocks[1:]:
            other_exit = self.lower_block(block, entry)
            self.builder.merge(other_exit, exit_)
        return exit_


def _const_to_expr(value: Value) -> IrExpr:
    return PBool(value) if isinstance(value, bool) else PEnum(value)


def lower_process(system: SystemInstance, proc_index: int) -> ProcessAutomaton:
    """Lower one instantiated process into its automaton."""
    proc = system.processes[proc_index]
    lowerer = _Lowerer(system, proc)
    builder = lowerer.builder
    entry = builder.fresh()
    # An empty body lowers to one noop step, so entry != terminal.
    terminal = lowerer.lower_block(system.template_info(proc).template.body, entry)
    return builder.build(proc.name, entry, terminal, tuple(lowerer.info.slots))


def lower_system(system: SystemInstance) -> CompiledSystem:
    automata = tuple(lower_process(system, i) for i in range(len(system.processes)))
    return CompiledSystem(instance=system, automata=automata)


# ---------------------------------------------------------------------------
# Textual dump: sema.render with Sandal's operators and these leaf spellings

_SANDAL_OPS = {op: op for ops in ast.BINARY_LEVELS for op in ops}


def _render_action(a: Action, expr, chans, names) -> str:
    if isinstance(a, ASetVar):
        return f"{names[a.slot]} := {expr(a.value)}"
    if isinstance(a, ABeginSend):
        vals = ", ".join(expr(v) for v in a.payload)
        name = chans[a.chan]
        return f"ready({name}) := true, buf({name}) := ({vals})"
    if isinstance(a, AFinishSend):
        name = chans[a.chan]
        return f"ready({name}) := false, received({name}) := false"
    if isinstance(a, AMarkReceived):
        return f"received({chans[a.chan]}) := true"
    if isinstance(a, APush):
        vals = ", ".join(expr(v) for v in a.payload)
        return f"push({chans[a.chan]}, ({vals}))"
    assert isinstance(a, APop)
    return f"pop({chans[a.chan]})"


def dump_automaton(automaton: ProcessAutomaton, system: SystemInstance) -> str:
    """One line per transition, ordered by source location then declaration."""
    chans = [c.name for c in system.channels]
    names = [s.name for s in automaton.locals]
    spell = {
        PBool: lambda e: render_value(e.value),
        PEnum: lambda e: e.ctor,
        EVar: lambda e: names[e.slot],
        EChanReady: lambda e: f"ready({chans[e.chan]})",
        EChanReceived: lambda e: f"received({chans[e.chan]})",
        EChanBufItem: lambda e: f"buf({chans[e.chan]})[{e.index}]",
        EChanNotFull: lambda e: f"!full({chans[e.chan]})",
        EChanNotEmpty: lambda e: f"!empty({chans[e.chan]})",
        EChanHeadItem: lambda e: f"head({chans[e.chan]})[{e.index}]",
    }

    def expr(e: IrExpr) -> str:
        return render(e, spell, _SANDAL_OPS, "!{}")

    lines = [f"process {automaton.name}: {automaton.n_locations} locations, "
             f"entry {automaton.entry}, terminal {automaton.terminal}"]
    ordered = sorted(
        enumerate(automaton.transitions), key=lambda item: (item[1].src, item[0])
    )
    for _, t in ordered:
        actions = ", ".join(_render_action(a, expr, chans, names) for a in t.actions)
        lines.append(f"{t.src} -> {t.dst} [{expr(t.guard)}] / {actions} ({t.label})")
    return "\n".join(lines) + "\n"
