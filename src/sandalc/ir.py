"""Lowering of process bodies into guarded transition automata.

Each construct is lowered from an entry location that it is given and
returns its open edges, those that leave it with no destination yet; the
caller joins them by making the next location and pointing them at it.  A
statement sequence, or an unrolled `for`, joins between consecutive parts,
and every branch of an if, choice or receive condition leaves its open edges
to the one join after it.  Most statements are one edge from the entry;
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
automaton is acyclic, and a location is made, and numbered, only once every
edge into it exists: locations are made in a topological order, not
renumbered into one, and every transition leads from a lower number to a
higher one.  The entry is 0 and the terminal, which every location reaches,
is made last; the weaver's shutdown location comes after it, and a drop edge
skips forward over a send.
"""

from __future__ import annotations

from . import sema
from . import syntax as ast
from .errors import NO_POS, Pos
from .pretty import print_expr
from .record import record
from .sema import CheckedModel, PBin, PBool, PEnum, PNot, Value, render, render_value, zero_value

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

    @property
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
    locals: tuple[sema.LocalVar, ...]  # by slot; each starts at zero_value(type)
    shutdown_loc: int | None = None

    @property
    def initial_locals(self) -> tuple[Value, ...]:
        return tuple(zero_value(var.type) for var in self.locals)


@record
class CompiledSystem:
    """A checked model together with one automaton per process, in order."""

    __slots__ = ("__dict__",)  # checker._compiled keeps its per-model tables here
    instance: CheckedModel
    automata: tuple[ProcessAutomaton, ...]


# ---------------------------------------------------------------------------
# Lowering


class _Lowerer:
    def __init__(self, system: CheckedModel, proc: sema.ProcessDecl) -> None:
        self.system = system
        self.proc = proc
        self.info = system.template_info(proc)
        self.n_locs = 0
        self.edges: list[list] = []  # Transition fields; dst is None until joined
        self.loop_env: dict[int, int] = {}  # id(For node) -> current channel index

    def add(self, src, guard, actions, kind, desc, pos) -> list[list]:
        """One edge from src, as the open ends it makes: the caller joins it."""
        edge = [src, None, guard, tuple(actions), kind, desc, pos]
        self.edges.append(edge)
        return [edge]

    def join(self, ends: list[list]) -> int:
        """Make the next location and point the open ends at it."""
        loc, self.n_locs = self.n_locs, self.n_locs + 1
        for edge in ends:
            edge[1] = loc
        return loc

    # -- name resolution against the instantiated bindings

    def channel_of(self, expr: ast.Expr) -> int:
        binding = self.info.resolved[id(expr)]
        if isinstance(binding, sema.LoopChannel):
            return self.loop_env[binding.for_id]
        assert isinstance(binding.type, sema.ChannelType)
        return self.proc.args[binding.name]

    def channel_list_of(self, expr: ast.Expr) -> tuple[int, ...]:
        binding = self.info.resolved[id(expr)]
        assert isinstance(binding.type, sema.ChannelArrayType)
        return self.proc.args[binding.name]

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
                return _const_to_expr(self.proc.args[binding.name])
            assert isinstance(binding, sema.EnumConst)
            return PEnum(binding.ctor)
        if isinstance(expr, ast.Unary):
            return PNot(self.compile_expr(expr.operand))
        assert isinstance(expr, ast.Binary), f"cannot compile {expr!r}"
        return PBin(expr.op, self.compile_expr(expr.left), self.compile_expr(expr.right))

    # -- fragments; every lowering adds its edges from a given entry and
    # returns the open edges that leave it, for the caller to join

    def lower_block(self, block: ast.Block, entry: int) -> list[list]:
        if not block.stmts:
            return self.add(entry, TRUE, (), "noop", "skip", block.pos)
        ends = self.lower_stmt(block.stmts[0], entry)
        for stmt in block.stmts[1:]:
            ends = self.lower_stmt(stmt, self.join(ends))
        return ends

    def lower_stmt(self, stmt: ast.Stmt, entry: int) -> list[list]:
        if isinstance(stmt, ast.VarDecl):
            return self.lower_var(stmt, entry)
        if isinstance(stmt, ast.Assign):
            slot = self.info.resolved[id(stmt)].slot
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
            # Alternatives branch from the shared entry, so an alternative is
            # selectable exactly when its first statement is enabled.
            return [end for block in stmt.blocks for end in self.lower_block(block, entry)]
        assert isinstance(stmt, ast.ExprStmt)
        return self.add(entry, TRUE, (), "expr", print_expr(stmt.expr), stmt.pos)

    def lower_var(self, stmt: ast.VarDecl, entry: int) -> list[list]:
        var = self.info.resolved[id(stmt)]
        lhs = f"var {stmt.name}"
        if stmt.init is not None:
            return self.lower_store(var.slot, stmt.init, lhs, "var", stmt.pos, entry)
        zero = ASetVar(var.slot, _const_to_expr(zero_value(var.type)))
        return self.add(entry, TRUE, (zero,), "var", lhs, stmt.pos)

    def lower_store(
        self, slot: int, rhs: ast.Expr, lhs: str, kind: str, pos: Pos, entry: int
    ) -> list[list]:
        """`lhs = rhs` into a slot.  A timeout_recv or nonblock_recv on the
        right has two edges, each storing its outcome."""
        if not isinstance(rhs, ast.RecvExpr):
            store = ASetVar(slot, self.compile_expr(rhs))
            return self.add(entry, TRUE, (store,), kind, f"{lhs} = {print_expr(rhs)}", pos)
        text, taken, untaken = self._branches(rhs)
        ends = []
        for (guard, actions, branch_kind), result in ((taken, True), (untaken, False)):
            stored = actions + (ASetVar(slot, PBool(result)),)
            ends += self.add(entry, guard, stored, branch_kind, f"{lhs} = {text}", pos)
        return ends

    def lower_send(self, stmt: ast.Send, entry: int) -> list[list]:
        chan = self.channel_of(stmt.channel)
        payload = tuple(self.compile_expr(v) for v in stmt.values)
        values = ", ".join(print_expr(v) for v in stmt.values)
        desc = f"send({self.chan_name(chan)}, {values})"
        ty = self.chan_type(chan)
        if ty.is_buffered:
            return self.add(entry, EChanNotFull(chan, ty.capacity), (APush(chan, payload),),
                            "send.buffered", desc, stmt.pos)
        fire = self.add(entry, PNot(EChanReady(chan)), (ABeginSend(chan, payload),),
                        "send.fire", desc, stmt.pos)
        return self.add(self.join(fire), EChanReceived(chan), (AFinishSend(chan),),
                        "send.done", desc, stmt.pos)

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

    def lower_recv(self, stmt: ast.Recv, entry: int) -> list[list]:
        """recv, or peek: the buffered recv without its trailing pop (sema
        rejects a peek on a rendezvous channel)."""
        chan = self.channel_of(stmt.channel)
        slots = self.info.resolved[id(stmt)]
        form = stmt.form
        desc = f"{form}({self.chan_name(chan)}, {', '.join(stmt.targets)})"
        actions = self._recv_actions(chan, slots)
        if form == "peek":
            actions = actions[:-1]
        return self.add(entry, self._recv_guard(chan), actions, form, desc, stmt.pos)

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

    def lower_if(self, stmt: ast.If, entry: int) -> list[list]:
        text, taken, untaken = self._branches(stmt.cond)
        desc = f"if {text}"
        ends = self.lower_block(stmt.then, self.join(self.add(entry, *taken, desc, stmt.pos)))
        untaken_end = self.add(entry, *untaken, desc, stmt.pos)
        if stmt.els is None:
            return ends + untaken_end
        return ends + self.lower_block(stmt.els, self.join(untaken_end))

    def lower_for(self, stmt: ast.For, entry: int) -> list[list]:
        channels = self.channel_list_of(stmt.iterable)
        if not channels:
            return self.add(entry, TRUE, (), "noop", "for (empty)", stmt.pos)
        for k, chan in enumerate(channels):
            self.loop_env[id(stmt)] = chan
            ends = self.lower_block(stmt.body, self.join(ends) if k else entry)
        del self.loop_env[id(stmt)]
        return ends


def _const_to_expr(value: Value) -> IrExpr:
    return PBool(value) if isinstance(value, bool) else PEnum(value)


def lower_process(system: CheckedModel, proc_index: int) -> ProcessAutomaton:
    """Lower one instantiated process into its automaton.  Each location is
    numbered as it is made, after every location with an edge into it, so
    the entry is 0 and the terminal, made last, is n_locations - 1."""
    proc = system.processes[proc_index]
    lowerer = _Lowerer(system, proc)
    entry = lowerer.join([])
    # An empty body lowers to one noop step, so entry != terminal.
    terminal = lowerer.join(lowerer.lower_block(lowerer.info.template.body, entry))
    return ProcessAutomaton(
        name=proc.name,
        n_locations=lowerer.n_locs,
        entry=entry,
        terminal=terminal,
        transitions=tuple(Transition(*edge) for edge in lowerer.edges),
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
