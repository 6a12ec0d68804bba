"""Lowering of process bodies into guarded transition automata.

Each construct is lowered between an entry and an exit location that it is
given: a statement sequence, or an unrolled `for`, puts one fresh location
between each pair of consecutive parts, and every branch of an if, choice or
receive condition ends on the shared exit, so branches join without any
merging afterwards.  Most statements are one edge from entry to exit;
assignments, initialized `var`s and receive expressions share one store
path, and `peek` is the buffered `recv` without its pop.  Rendezvous
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
automaton is acyclic, and locations are numbered in a topological order:
every transition leads from a lower number to a higher one.  The entry is 0
and the terminal, which every location reaches, is the last; the weaver's
shutdown location comes after it, and a drop edge skips forward over a send.
"""

from __future__ import annotations

import heapq
from functools import cached_property

from . import sema
from . import syntax as ast
from .errors import NO_POS, Pos
from .pretty import print_expr
from .record import record
from .sema import CheckedModel, PBin, PBool, PEnum, PNot, SlotInfo, Value, render, render_value

NORMAL = "normal"
TIMEOUT = "timeout"
DROP = "drop"
SHUTDOWN = "shutdown"


# ---------------------------------------------------------------------------
# Guard and value expressions over (process locals, channel states): sema's
# PBool, PEnum, PNot and PBin, plus these


@record
class EVar:
    slot: int


@record
class EChanReady:
    chan: int


@record
class EChanReceived:
    chan: int


@record
class EChanBufItem:
    chan: int
    index: int


@record
class EChanNotFull:
    chan: int
    capacity: int


@record
class EChanNotEmpty:
    chan: int


@record
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


@record
class ASetVar:
    slot: int
    value: IrExpr


@record
class ABeginSend:
    """ready := true; value buffer := payload."""

    chan: int
    payload: tuple[IrExpr, ...]


@record
class AFinishSend:
    """ready := false; received := false; buffer cleared (channel reusable)."""

    chan: int


@record
class AMarkReceived:
    chan: int


@record
class APush:
    chan: int
    payload: tuple[IrExpr, ...]


@record
class APop:
    chan: int


Action = ASetVar | ABeginSend | AFinishSend | AMarkReceived | APush | APop

# One outgoing edge of a branch: (guard, actions, kind).
_Branch = tuple[IrExpr, tuple[Action, ...], str]


# ---------------------------------------------------------------------------
# Automata


@record
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


@record
class ProcessAutomaton:
    name: str
    n_locations: int
    entry: int
    terminal: int
    transitions: tuple[Transition, ...]
    locals: tuple[SlotInfo, ...]
    shutdown_loc: int | None = None

    @property
    def initial_locals(self) -> tuple[Value, ...]:
        return tuple(slot.zero for slot in self.locals)


@record
class CompiledSystem:
    """A checked model together with one automaton per process, in order."""

    instance: CheckedModel
    automata: tuple[ProcessAutomaton, ...]


# ---------------------------------------------------------------------------
# Lowering


# One edge before renumbering: (src, dst, guard, actions, kind, desc, pos).
_Edge = tuple[int, int, IrExpr, tuple[Action, ...], str, str, Pos]


class _Lowerer:
    def __init__(self, system: CheckedModel, proc: sema.ProcessDecl) -> None:
        self.system = system
        self.proc = proc
        self.info = system.template_info(proc)
        self.n_locs = 0
        self.edges: list[_Edge] = []
        self.loop_env: dict[int, int] = {}  # id(For node) -> current channel index

    def fresh(self) -> int:
        self.n_locs += 1
        return self.n_locs - 1

    def add(self, src, dst, guard, actions, kind, desc, pos) -> None:
        self.edges.append((src, dst, guard, tuple(actions), kind, desc, pos))

    def spans(self, entry: int, exit_: int, n: int):
        """n consecutive (entry, exit) pairs from entry to exit, with a fresh
        location between each pair."""
        for i in range(n):
            mid = exit_ if i == n - 1 else self.fresh()
            yield entry, mid
            entry = mid

    # -- name resolution against the instantiated bindings

    def channel_of(self, expr: ast.Expr) -> int:
        binding = self.info.resolved[id(expr)]
        if isinstance(binding, sema.LoopChannel):
            return self.loop_env[binding.for_id]
        assert isinstance(binding.type, sema.ChannelType)
        return self.proc.chan_bindings[binding.name]

    def channel_list_of(self, expr: ast.Expr) -> tuple[int, ...]:
        binding = self.info.resolved[id(expr)]
        assert isinstance(binding.type, sema.ChannelArrayType)
        return self.proc.chan_bindings[binding.name]

    def chan_name(self, chan: int) -> str:
        return self.system.channels[chan].name

    def chan_type(self, chan: int) -> sema.ChannelType:
        return self.system.channels[chan].type

    def compile_expr(self, expr: ast.Expr) -> IrExpr:
        if isinstance(expr, ast.BoolLit):
            return PBool(expr.value)
        if isinstance(expr, ast.Name):
            binding = self.info.resolved[id(expr)]
            if isinstance(binding, sema.LocalVar):
                return EVar(binding.slot)
            if isinstance(binding, sema.Param):
                return _const_to_expr(self.proc.const_bindings[binding.name])
            assert isinstance(binding, sema.EnumConst)
            return PEnum(binding.ctor)
        if isinstance(expr, ast.Unary):
            return PNot(self.compile_expr(expr.operand))
        assert isinstance(expr, ast.Binary), f"cannot compile {expr!r}"
        return PBin(expr.op, self.compile_expr(expr.left), self.compile_expr(expr.right))

    # -- fragments; every lowering adds its edges between a given entry and exit

    def lower_block(self, block: ast.Block, entry: int, exit_: int) -> None:
        if not block.stmts:
            self.add(entry, exit_, TRUE, (), "noop", "skip", block.pos)
        for stmt, (src, dst) in zip(block.stmts, self.spans(entry, exit_, len(block.stmts))):
            self.lower_stmt(stmt, src, dst)

    def lower_stmt(self, stmt: ast.Stmt, entry: int, exit_: int) -> None:
        if isinstance(stmt, ast.VarDecl):
            self.lower_var(stmt, entry, exit_)
        elif isinstance(stmt, ast.Assign):
            slot = self.info.resolved[id(stmt)].slot
            self.lower_store(slot, stmt.value, stmt.name, "assign", stmt.pos, entry, exit_)
        elif isinstance(stmt, ast.Send):
            self.lower_send(stmt, entry, exit_)
        elif isinstance(stmt, ast.Recv):
            self.lower_recv(stmt, entry, exit_)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt, entry, exit_)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt, entry, exit_)
        elif isinstance(stmt, ast.Choice):
            # Alternatives branch from the shared entry, so an alternative is
            # selectable exactly when its first statement is enabled.
            for block in stmt.blocks:
                self.lower_block(block, entry, exit_)
        else:
            assert isinstance(stmt, ast.ExprStmt)
            self.add(entry, exit_, TRUE, (), "expr", print_expr(stmt.expr), stmt.pos)

    def lower_var(self, stmt: ast.VarDecl, entry: int, exit_: int) -> None:
        slot = self.info.resolved[id(stmt)].slot
        lhs = f"var {stmt.name}"
        if stmt.init is not None:
            self.lower_store(slot, stmt.init, lhs, "var", stmt.pos, entry, exit_)
        else:
            zero = ASetVar(slot, _const_to_expr(self.info.slots[slot].zero))
            self.add(entry, exit_, TRUE, (zero,), "var", lhs, stmt.pos)

    def lower_store(
        self, slot: int, rhs: ast.Expr, lhs: str, kind: str, pos: Pos, entry: int, exit_: int
    ) -> None:
        """`lhs = rhs` into a slot.  A timeout_recv or nonblock_recv on the
        right has two edges to the exit, each storing its outcome."""
        if not isinstance(rhs, ast.RecvExpr):
            store = ASetVar(slot, self.compile_expr(rhs))
            self.add(entry, exit_, TRUE, (store,), kind, f"{lhs} = {print_expr(rhs)}", pos)
            return
        text, taken, untaken = self._branches(rhs)
        for (guard, actions, branch_kind), result in ((taken, True), (untaken, False)):
            stored = actions + (ASetVar(slot, PBool(result)),)
            self.add(entry, exit_, guard, stored, branch_kind, f"{lhs} = {text}", pos)

    def lower_send(self, stmt: ast.Send, entry: int, exit_: int) -> None:
        chan = self.channel_of(stmt.channel)
        payload = tuple(self.compile_expr(v) for v in stmt.values)
        values = ", ".join(print_expr(v) for v in stmt.values)
        desc = f"send({self.chan_name(chan)}, {values})"
        ty = self.chan_type(chan)
        if ty.is_buffered:
            self.add(entry, exit_, EChanNotFull(chan, ty.capacity), (APush(chan, payload),),
                     "send.buffered", desc, stmt.pos)
            return
        mid = self.fresh()
        self.add(entry, mid, PNot(EChanReady(chan)), (ABeginSend(chan, payload),),
                 "send.fire", desc, stmt.pos)
        self.add(mid, exit_, EChanReceived(chan), (AFinishSend(chan),), "send.done", desc, stmt.pos)

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

    def lower_recv(self, stmt: ast.Recv, entry: int, exit_: int) -> None:
        """recv, or peek: the buffered recv without its trailing pop (sema
        rejects a peek on a rendezvous channel)."""
        chan = self.channel_of(stmt.channel)
        slots = self.info.resolved[id(stmt)]
        form = stmt.form
        desc = f"{form}({self.chan_name(chan)}, {', '.join(stmt.targets)})"
        actions = self._recv_actions(chan, slots)
        if form == "peek":
            actions = actions[:-1]
        self.add(entry, exit_, self._recv_guard(chan), actions, form, desc, stmt.pos)

    def _branches(self, cond: ast.Expr) -> tuple[str, _Branch, _Branch]:
        """A condition's text and its taken and untaken edges."""
        if not isinstance(cond, ast.RecvExpr):
            guard = self.compile_expr(cond)
            return print_expr(cond), (guard, (), "if.then"), (PNot(guard), (), "if.else")
        chan = self.channel_of(cond.channel)
        slots = self.info.resolved[id(cond)]
        text = f"{cond.form}({self.chan_name(chan)}, {', '.join(cond.targets)})"
        guard = self._recv_guard(chan)
        if cond.form == "timeout_recv":
            taken = (guard, self._recv_actions(chan, slots), "timeout.ok")
            # The failure branch is unconditionally enabled: delivery may miss
            # its window even when a sender stands ready.
            return text, taken, (TRUE, (), "timeout.fail")
        taken = (guard, self._recv_actions(chan, slots), "nonblock.ok")
        return text, taken, (PNot(guard), (), "nonblock.fail")

    def lower_if(self, stmt: ast.If, entry: int, exit_: int) -> None:
        text, taken, untaken = self._branches(stmt.cond)
        desc = f"if {text}"
        then_entry = self.fresh()
        self.add(entry, then_entry, *taken, desc, stmt.pos)
        self.lower_block(stmt.then, then_entry, exit_)
        if stmt.els is None:
            self.add(entry, exit_, *untaken, desc, stmt.pos)
        else:
            else_entry = self.fresh()
            self.add(entry, else_entry, *untaken, desc, stmt.pos)
            self.lower_block(stmt.els, else_entry, exit_)

    def lower_for(self, stmt: ast.For, entry: int, exit_: int) -> None:
        channels = self.channel_list_of(stmt.iterable)
        if not channels:
            self.add(entry, exit_, TRUE, (), "noop", "for (empty)", stmt.pos)
        for chan, (src, dst) in zip(channels, self.spans(entry, exit_, len(channels))):
            self.loop_env[id(stmt)] = chan
            self.lower_block(stmt.body, src, dst)
        self.loop_env.pop(id(stmt), None)


def _const_to_expr(value: Value) -> IrExpr:
    return PBool(value) if isinstance(value, bool) else PEnum(value)


def lower_process(system: CheckedModel, proc_index: int) -> ProcessAutomaton:
    """Lower one instantiated process into its automaton."""
    proc = system.processes[proc_index]
    lowerer = _Lowerer(system, proc)
    entry, terminal = lowerer.fresh(), lowerer.fresh()
    # An empty body lowers to one noop step, so entry != terminal.
    lowerer.lower_block(system.template_info(proc).template.body, entry, terminal)
    edges = lowerer.edges
    # Renumber in topological order by Kahn's algorithm from the entry: of the
    # locations whose every incoming edge is numbered, take next the one made
    # ready by the earliest edge in the list.  Raw ids are dense, so plain
    # lists index them.
    leaving: list[list[tuple[int, int]]] = [[] for _ in range(lowerer.n_locs)]
    waiting = [0] * lowerer.n_locs  # incoming edges from unnumbered locations
    for k, (src, dst, *_) in enumerate(edges):
        leaving[src].append((k, dst))
        waiting[dst] += 1
    numbering = [0] * lowerer.n_locs
    ready, n = [(-1, entry)], 0
    while ready:
        _, loc = heapq.heappop(ready)
        numbering[loc], n = n, n + 1
        for k, dst in leaving[loc]:
            waiting[dst] -= 1
            if not waiting[dst]:
                heapq.heappush(ready, (k, dst))
    transitions = tuple(
        Transition(numbering[src], numbering[dst], *rest) for src, dst, *rest in edges
    )
    return ProcessAutomaton(
        name=proc.name,
        n_locations=n,
        entry=0,
        terminal=numbering[terminal],
        transitions=transitions,
        locals=tuple(lowerer.info.slots),
    )


def lower_system(system: CheckedModel) -> CompiledSystem:
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


def dump_automaton(automaton: ProcessAutomaton, system: CheckedModel) -> str:
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
