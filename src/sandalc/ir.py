"""Lowering of process bodies into guarded transition automata.

Each statement contributes a fragment of locations and transitions; a process
automaton is the concatenation of its statements' fragments.  Rendezvous
communication uses the three-variable handshake (ready flag, received flag,
one-slot value buffer): a send occupies two transitions through an
intermediate location, a receive is a single transition, and the sender's
final step resets the flags so the channel can be reused.  Guards and values
are built from sema's literal, not and binary nodes plus EVar and six channel
reads, so the checker evaluates them and ltl propositions alike.

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
from .sema import PBin, PBool, PEnum, PNot, SlotInfo, SystemInstance, Value

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


# ---------------------------------------------------------------------------
# Actions (applied in order, atomically with the guard check)


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

# One outgoing edge of a branch: (guard, actions, kind, tag).
_Branch = tuple[IrExpr, tuple[Action, ...], str, str]


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
    tag: str = NORMAL  # normal | timeout | drop | shutdown

    @property
    def label(self) -> str:
        pos_part = "" if self.pos == NO_POS else f" @{self.pos}"
        return f"{self.desc}{pos_part} [{self.kind}]"


@dataclass(frozen=True)
class SendSite:
    """Entry and exit locations of one lowered send statement."""

    chan: int
    src: int
    dst: int
    desc: str
    pos: Pos


@dataclass(frozen=True)
class ProcessAutomaton:
    name: str
    n_locations: int
    entry: int
    terminal: int
    transitions: tuple[Transition, ...]
    locals: tuple[SlotInfo, ...]
    send_sites: tuple[SendSite, ...]
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
        self.send_sites: list[SendSite] = []
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

    def add(self, src, dst, guard, actions, kind, desc, pos, tag=NORMAL) -> None:
        self.transitions.append(
            Transition(src, dst, guard, tuple(actions), kind, desc, pos, tag)
        )

    def build(
        self, name: str, entry: int, terminal: int, locals_: tuple[SlotInfo, ...]
    ) -> ProcessAutomaton:
        # Renumber locations compactly and deterministically: entry first,
        # then in order of appearance along the transition list.
        numbering: dict[int, int] = {self.resolve(entry): 0}
        for t in self.transitions:
            for loc in (self.resolve(t.src), self.resolve(t.dst)):
                if loc not in numbering:
                    numbering[loc] = len(numbering)
        term = self.resolve(terminal)
        if term not in numbering:
            numbering[term] = len(numbering)
        transitions = tuple(
            replace(t, src=numbering[self.resolve(t.src)], dst=numbering[self.resolve(t.dst)])
            for t in self.transitions
        )
        sites = tuple(
            replace(s, src=numbering[self.resolve(s.src)], dst=numbering[self.resolve(s.dst)])
            for s in self.send_sites
        )
        return ProcessAutomaton(
            name=name,
            n_locations=len(numbering),
            entry=0,
            terminal=numbering[term],
            transitions=transitions,
            locals=locals_,
            send_sites=sites,
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
            exit_ = self.builder.fresh()
            self.builder.add(entry, exit_, TRUE, (), "noop", "skip", block.pos)
            return exit_
        loc = entry
        for stmt in block.stmts:
            loc = self.lower_stmt(stmt, loc)
        return loc

    def lower_stmt(self, stmt: ast.Stmt, entry: int) -> int:
        if isinstance(stmt, ast.VarDecl):
            return self.lower_var(stmt, entry)
        if isinstance(stmt, ast.Assign):
            return self.lower_assign(stmt, entry)
        if isinstance(stmt, ast.Send):
            return self.lower_send(stmt, entry)
        if isinstance(stmt, ast.Recv):
            return self.lower_recv(stmt, entry)
        if isinstance(stmt, ast.Peek):
            return self.lower_peek(stmt, entry)
        if isinstance(stmt, ast.If):
            return self.lower_if(stmt, entry)
        if isinstance(stmt, ast.For):
            return self.lower_for(stmt, entry)
        if isinstance(stmt, ast.Choice):
            return self.lower_choice(stmt, entry)
        assert isinstance(stmt, ast.ExprStmt)
        exit_ = self.builder.fresh()
        self.builder.add(entry, exit_, TRUE, (), "expr", print_expr(stmt.expr), stmt.pos)
        return exit_

    def lower_var(self, stmt: ast.VarDecl, entry: int) -> int:
        slot = self.info.decl_slots[id(stmt)]
        desc = f"var {stmt.name}"
        if isinstance(stmt.init, ast.RecvExpr):
            return self.lower_recv_expr(stmt.init, slot, desc, stmt.pos, entry)
        exit_ = self.builder.fresh()
        if stmt.init is None:
            value: IrExpr = _const_to_expr(self.info.slots[slot].zero)
        else:
            value = self.compile_expr(stmt.init)
            desc += f" = {print_expr(stmt.init)}"
        self.builder.add(entry, exit_, TRUE, (ASetVar(slot, value),), "var", desc, stmt.pos)
        return exit_

    def lower_assign(self, stmt: ast.Assign, entry: int) -> int:
        slot = self.info.assign_slots[id(stmt)]
        if isinstance(stmt.value, ast.RecvExpr):
            return self.lower_recv_expr(stmt.value, slot, stmt.name, stmt.pos, entry)
        exit_ = self.builder.fresh()
        desc = f"{stmt.name} = {print_expr(stmt.value)}"
        self.builder.add(
            entry, exit_, TRUE, (ASetVar(slot, self.compile_expr(stmt.value)),),
            "assign", desc, stmt.pos,
        )
        return exit_

    def lower_send(self, stmt: ast.Send, entry: int) -> int:
        chan = self.channel_of(stmt.channel)
        payload = tuple(self.compile_expr(v) for v in stmt.values)
        values = ", ".join(print_expr(v) for v in stmt.values)
        desc = f"send({self.chan_name(chan)}, {values})"
        exit_ = self.builder.fresh()
        if self.chan_type(chan).is_buffered:
            self.builder.add(
                entry, exit_, EChanNotFull(chan), (APush(chan, payload),),
                "send.buffered", desc, stmt.pos,
            )
        else:
            mid = self.builder.fresh()
            self.builder.add(
                entry, mid, PNot(EChanReady(chan)), (ABeginSend(chan, payload),),
                "send.fire", desc, stmt.pos,
            )
            self.builder.add(
                mid, exit_, EChanReceived(chan), (AFinishSend(chan),),
                "send.done", desc, stmt.pos,
            )
        self.builder.send_sites.append(SendSite(chan, entry, exit_, desc, stmt.pos))
        return exit_

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
        chan = self.channel_of(stmt.channel)
        slots = self.info.target_slots[id(stmt)]
        desc = f"recv({self.chan_name(chan)}, {', '.join(stmt.targets)})"
        exit_ = self.builder.fresh()
        self.builder.add(
            entry, exit_, self._recv_guard(chan), self._recv_actions(chan, slots),
            "recv", desc, stmt.pos,
        )
        return exit_

    def lower_peek(self, stmt: ast.Peek, entry: int) -> int:
        chan = self.channel_of(stmt.channel)
        slots = self.info.target_slots[id(stmt)]
        desc = f"peek({self.chan_name(chan)}, {', '.join(stmt.targets)})"
        exit_ = self.builder.fresh()
        copies = tuple(ASetVar(slot, EChanHeadItem(chan, i)) for i, slot in enumerate(slots))
        self.builder.add(
            entry, exit_, EChanNotEmpty(chan), copies, "peek", desc, stmt.pos
        )
        return exit_

    def _branches(self, cond: ast.Expr) -> tuple[str, _Branch, _Branch]:
        """A condition's text and its taken and untaken edges."""
        if not isinstance(cond, ast.RecvExpr):
            guard = self.compile_expr(cond)
            taken = (guard, (), "if.then", NORMAL)
            return print_expr(cond), taken, (PNot(guard), (), "if.else", NORMAL)
        chan = self.channel_of(cond.channel)
        slots = self.info.target_slots[id(cond)]
        text = f"{cond.form}({self.chan_name(chan)}, {', '.join(cond.targets)})"
        guard = self._recv_guard(chan)
        if cond.form == "timeout_recv":
            taken = (guard, self._recv_actions(chan, slots), "timeout.ok", NORMAL)
            # The failure branch is unconditionally enabled: delivery may miss
            # its window even when a sender stands ready.
            return text, taken, (TRUE, (), "timeout.fail", TIMEOUT)
        taken = (guard, self._recv_actions(chan, slots), "nonblock.ok", NORMAL)
        return text, taken, (PNot(guard), (), "nonblock.fail", NORMAL)

    def lower_recv_expr(
        self, expr: ast.RecvExpr, result_slot: int, lhs: str, pos: Pos, entry: int
    ) -> int:
        """var/assign whose right-hand side is timeout_recv or nonblock_recv:
        both branches join at once and store the outcome in the result slot."""
        text, taken, untaken = self._branches(expr)
        desc = f"{lhs} = {text}"
        exit_ = self.builder.fresh()
        for (guard, actions, kind, tag), result in ((taken, True), (untaken, False)):
            stored = actions + (ASetVar(result_slot, PBool(result)),)
            self.builder.add(entry, exit_, guard, stored, kind, desc, pos, tag)
        return exit_

    def lower_if(self, stmt: ast.If, entry: int) -> int:
        text, taken, untaken = self._branches(stmt.cond)

        def branch(dst: int, edge: _Branch) -> None:
            guard, actions, kind, tag = edge
            self.builder.add(entry, dst, guard, actions, kind, f"if {text}", stmt.pos, tag)

        then_entry = self.builder.fresh()
        branch(then_entry, taken)
        exit_ = self.lower_block(stmt.then, then_entry)
        if stmt.els is None:
            branch(exit_, untaken)
        else:
            else_entry = self.builder.fresh()
            branch(else_entry, untaken)
            self.builder.merge(self.lower_block(stmt.els, else_entry), exit_)
        return exit_

    def lower_for(self, stmt: ast.For, entry: int) -> int:
        channels = self.channel_list_of(stmt.iterable)
        if not channels:
            exit_ = self.builder.fresh()
            self.builder.add(entry, exit_, TRUE, (), "noop", "for (empty)", stmt.pos)
            return exit_
        loc = entry
        saved = self.loop_env.get(id(stmt))
        for chan in channels:
            self.loop_env[id(stmt)] = chan
            loc = self.lower_block(stmt.body, loc)
        if saved is None:
            del self.loop_env[id(stmt)]
        else:
            self.loop_env[id(stmt)] = saved
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
# Textual dump


def render_expr(e: IrExpr, chan_names, local_names) -> str:
    if isinstance(e, PBool):
        return "true" if e.value else "false"
    if isinstance(e, PEnum):
        return e.ctor
    if isinstance(e, EVar):
        return local_names[e.slot]
    if isinstance(e, PNot):
        return f"!{render_expr(e.sub, chan_names, local_names)}"
    if isinstance(e, PBin):
        left = render_expr(e.left, chan_names, local_names)
        right = render_expr(e.right, chan_names, local_names)
        return f"({left} {e.op} {right})"
    if isinstance(e, EChanReady):
        return f"ready({chan_names[e.chan]})"
    if isinstance(e, EChanReceived):
        return f"received({chan_names[e.chan]})"
    if isinstance(e, EChanBufItem):
        return f"buf({chan_names[e.chan]})[{e.index}]"
    if isinstance(e, EChanNotFull):
        return f"!full({chan_names[e.chan]})"
    if isinstance(e, EChanNotEmpty):
        return f"!empty({chan_names[e.chan]})"
    assert isinstance(e, EChanHeadItem)
    return f"head({chan_names[e.chan]})[{e.index}]"


def render_action(a: Action, chan_names, local_names) -> str:
    if isinstance(a, ASetVar):
        return f"{local_names[a.slot]} := {render_expr(a.value, chan_names, local_names)}"
    if isinstance(a, ABeginSend):
        vals = ", ".join(render_expr(v, chan_names, local_names) for v in a.payload)
        name = chan_names[a.chan]
        return f"ready({name}) := true, buf({name}) := ({vals})"
    if isinstance(a, AFinishSend):
        name = chan_names[a.chan]
        return f"ready({name}) := false, received({name}) := false"
    if isinstance(a, AMarkReceived):
        return f"received({chan_names[a.chan]}) := true"
    if isinstance(a, APush):
        vals = ", ".join(render_expr(v, chan_names, local_names) for v in a.payload)
        return f"push({chan_names[a.chan]}, ({vals}))"
    assert isinstance(a, APop)
    return f"pop({chan_names[a.chan]})"


def dump_automaton(automaton: ProcessAutomaton, system: SystemInstance) -> str:
    """One line per transition, ordered by source location then declaration."""
    chan_names = [c.name for c in system.channels]
    local_names = [s.name for s in automaton.locals]
    lines = [f"process {automaton.name}: {automaton.n_locations} locations, "
             f"entry {automaton.entry}, terminal {automaton.terminal}"]
    ordered = sorted(
        enumerate(automaton.transitions), key=lambda item: (item[1].src, item[0])
    )
    for _, t in ordered:
        guard = render_expr(t.guard, chan_names, local_names)
        actions = ", ".join(render_action(a, chan_names, local_names) for a in t.actions)
        lines.append(f"{t.src} -> {t.dst} [{guard}] / {actions} ({t.label})")
    return "\n".join(lines) + "\n"
