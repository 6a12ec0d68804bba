"""Emission of the woven system as a self-contained SMV module text.

One module per channel and per process instance holds that component's state
variables, each listed once in the component's table of (field, type, INIT
conjunct); main instantiates everything, owns the transition relation and
reads its keep rules' field list from the same tables.  A bookkeeping variable
`step` names the woven transition taken last, one symbol per transition plus
`t_none`; its next value is the interleaving scheduler's nondeterministic
choice.  The first TRANS is a disjunction with one disjunct per transition,
listing only its enabledness and the fields it writes, plus the `t_none`
stutter disjunct of a deadlocked state.  Then one TRANS per state field keeps
its value unless `next(step)` is one of the transitions that write it, so the
text is linear in transitions plus writes.  No fairness constraint is
emitted: the automata are acyclic, so every infinite path ends in the
stutter, where no process is enabled.

main_module walks each process's transitions once, writing a transition's
`en_<pid>_<k>` DEFINE line and TRANS disjunct and adding its step symbol to
the keep rules of the fields it writes.  It allocates those names as it goes,
in (process, k) order, and `t_none` after them.  A user name may take any of
them, and the collision suffix then depends on that order, so the order is
part of the output (tests/test_smv.py pins it).

Guards, values and ltl formulas print through sema.render and the emitter's
leaf tables.  Faults are already present in the woven automata, so the output
needs no separate fault handling.  Emission is byte-deterministic.
"""

from __future__ import annotations

import re

from . import ir
from .record import record
from .sema import BoolType, CheckedModel, EnumType, PAtom, PBool, PEnum, Value
from .sema import render, zero_value


# One state variable of a component: (field, SMV type, INIT conjunct).
_Field = tuple[str, str, str]

# Binary operators of guards and ltl formulas, in SMV syntax.
_BINARY_OPS = {"&&": "&", "||": "|", "->": "->", "==": "=", "!=": "!="}


_RESERVED = frozenset(
    """
    MODULE DEFINE MDEFINE CONSTANTS VAR IVAR FROZENVAR INIT TRANS INVAR SPEC
    CTLSPEC LTLSPEC PSLSPEC COMPUTE NAME INVARSPEC FAIRNESS JUSTICE COMPASSION
    ISA ASSIGN CONSTRAINT SIMPWFF CTLWFF LTLWFF PSLWFF COMPWFF IN MIN MAX
    MIRROR PRED PREDICATES process array of boolean integer real word word1
    bool signed unsigned extend resize sizeof uwconst swconst init self TRUE
    FALSE case esac union in xor xnor nand nor next mod abs max min
    A E F G X U V S T O H Y Z AX AG AF EX EG EF
    """.split()
)

# A character outside SMV's ASCII identifiers.
_NON_IDENT = re.compile(r"[^A-Za-z0-9_]")


class _Sanitizer:
    """Deterministic identifier sanitization with collision suffixes."""

    def __init__(self) -> None:
        self.used: set[str] = set()
        self.mapping: dict[str, str] = {}

    def name(self, original: str) -> str:
        if original in self.mapping:
            return self.mapping[original]
        candidate = self.fresh(original)
        self.mapping[original] = candidate
        return candidate

    def take(self, name: str) -> str:
        """Allocate the identifier `name` as is when free, else as `fresh` would."""
        if name in self.used or name in _RESERVED:
            return self.fresh(name)
        self.used.add(name)
        return name

    def fresh(self, original: str) -> str:
        """Allocate a unique name without consulting the memo (for names the
        emitter invents itself, which must never alias a user name)."""
        base = _NON_IDENT.sub("_", original)
        if not base or base[0].isdigit():
            base = "v_" + base
        candidate = base
        n = 1
        while candidate in _RESERVED or candidate in self.used:
            n += 1
            candidate = f"{base}_{n}"
        self.used.add(candidate)
        return candidate


@record
class SmvDocument:
    channel_modules: tuple[str, ...]  # module texts
    process_modules: tuple[str, ...]
    main_module: str  # ends in the LTLSPEC lines

    def render(self) -> str:
        return "\n".join((*self.channel_modules, *self.process_modules, self.main_module))


class _Emitter:
    def __init__(self, system: CheckedModel, automata) -> None:
        self.system = system
        self.automata = automata
        self.ctor_names = _Sanitizer()
        self.instance_names = _Sanitizer()
        # Enum constructors first: they are global symbolic constants.
        for enum in system.enums.values():
            for ctor in enum.constructors:
                self.ctor_names.name(ctor)
        self.chan_ids = [self.instance_names.name(c.name) for c in system.channels]
        self.proc_ids = [self.instance_names.name(p.name) for p in system.processes]
        self.var_ids: list[list[str]] = []
        self.loc_syms: list[list[str]] = []  # per process, indexed by location
        for automaton in automata:
            names = _Sanitizer()
            names.used.add("loc")
            self.var_ids.append([names.name(info.name) for info in automaton.locals])
            locs = [f"l{loc}" for loc in range(automaton.n_locations)]
            if automaton.shutdown_loc is not None:
                locs[automaton.shutdown_loc] = "shutdown"
            self.loc_syms.append(locs)
        # Bookkeeping names in main share a namespace with the instances;
        # scheduler symbols share the symbolic-constant namespace with the
        # enum constructors.
        self.step_var = self.instance_names.fresh("step")
        self.any_enabled = self.instance_names.fresh("any_enabled")
        # Leaf spellings for sema.render: one guard table per process, whose
        # locals read as `pid.var`, and one ltl table, whose atoms name any
        # process (there `!` parenthesizes its operand).  No leaf refers to
        # self: that cycle would keep each emitter alive until a collection.
        ctor, chans = self.ctor_names.name, self.chan_ids
        pids, var_ids = self.proc_ids, self.var_ids
        literals = {PBool: lambda e: "TRUE" if e.value else "FALSE", PEnum: lambda e: ctor(e.ctor)}
        reads = {
            **literals,
            ir.EChanReady: lambda e: f"{chans[e.chan]}.ready",
            ir.EChanReceived: lambda e: f"{chans[e.chan]}.received",
            ir.EChanBufItem: lambda e: f"{chans[e.chan]}.v{e.index}",
            ir.EChanNotFull: lambda e: f"({chans[e.chan]}.len < {e.capacity})",
            ir.EChanNotEmpty: lambda e: f"({chans[e.chan]}.len > 0)",
            ir.EChanHeadItem: lambda e: f"{chans[e.chan]}.q0_{e.index}",
        }
        self.guard_spell = [
            {**reads, ir.EVar: lambda e, pid=pid, var=var: f"{pid}.{var[e.slot]}"}
            for pid, var in zip(pids, var_ids)
        ]
        self.ltl_spell = {**literals, PAtom: lambda e: f"{pids[e.proc]}.{var_ids[e.proc][e.slot]}"}

    # -- small renderers

    def value_type(self, ty) -> str:
        if isinstance(ty, BoolType):
            return "boolean"
        assert isinstance(ty, EnumType)
        ctors = ", ".join(self.ctor_names.name(c) for c in ty.constructors)
        return "{" + ctors + "}"

    def literal(self, value: Value) -> str:
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        return self.ctor_names.name(value)

    def expr(self, e: ir.IrExpr, proc: int) -> str:
        """A guard or value: a local of `proc` is `pid.var`, `!` binds bare."""
        return render(e, self.guard_spell[proc], _BINARY_OPS, "!{}")

    # -- state fields, one table per component

    def value_field(self, field: str, ty) -> _Field:
        """A payload item or local variable, initially its type's zero."""
        return field, self.value_type(ty), f"{field} = {self.literal(zero_value(ty))}"

    def channel_fields(self, chan: int) -> list[_Field]:
        ty = self.system.channels[chan].type
        if not ty.is_buffered:
            fields = [("ready", "boolean", "!ready"), ("received", "boolean", "!received")]
            return fields + [self.value_field(f"v{j}", vt) for j, vt in enumerate(ty.payload)]
        return [("len", f"0..{ty.capacity}", "len = 0")] + [
            self.value_field(f"q{i}_{j}", vt)
            for i in range(ty.capacity)
            for j, vt in enumerate(ty.payload)
        ]

    def process_fields(self, proc: int) -> list[_Field]:
        automaton, locs = self.automata[proc], self.loc_syms[proc]
        loc = ("loc", "{" + ", ".join(locs) + "}", f"loc = {locs[automaton.entry]}")
        return [loc] + [
            self.value_field(var, info.type)
            for var, info in zip(self.var_ids[proc], automaton.locals)
        ]

    def components(self) -> list[tuple[str, str, list[_Field]]]:
        """(instance name, module name, fields) per channel, then per process."""
        chans = [
            (cid, f"chan_{cid}", self.channel_fields(chan))
            for chan, cid in enumerate(self.chan_ids)
        ]
        return chans + [
            (pid, f"proc_{pid}", self.process_fields(proc))
            for proc, pid in enumerate(self.proc_ids)
        ]

    # -- transition effects

    def _effects(self, proc: int, t: ir.Transition) -> dict[str, str]:
        """Next-state value per field the transition's actions write."""
        writes: dict[str, str] = {}
        for action in t.actions:
            if isinstance(action, ir.ASetVar):
                field = f"{self.proc_ids[proc]}.{self.var_ids[proc][action.slot]}"
                writes[field] = self.expr(action.value, proc)
                continue
            decl = self.system.channels[action.chan]
            cid = self.chan_ids[action.chan]
            if isinstance(action, ir.ABeginSend):
                writes[f"{cid}.ready"] = "TRUE"
                for j, value in enumerate(action.payload):
                    writes[f"{cid}.v{j}"] = self.expr(value, proc)
            elif isinstance(action, ir.AFinishSend):
                writes[f"{cid}.ready"] = "FALSE"
                writes[f"{cid}.received"] = "FALSE"
                for j, ty in enumerate(decl.type.payload):
                    writes[f"{cid}.v{j}"] = self.literal(zero_value(ty))
            elif isinstance(action, ir.AMarkReceived):
                writes[f"{cid}.received"] = "TRUE"
            elif isinstance(action, ir.APush):
                writes[f"{cid}.len"] = f"{cid}.len + 1"
                pushed = [self.expr(value, proc) for value in action.payload]
                for i in range(decl.type.capacity):
                    for j, value in enumerate(pushed):
                        slot = f"{cid}.q{i}_{j}"
                        writes[slot] = f"case {cid}.len = {i} : {value}; TRUE : {slot}; esac"
            else:
                assert isinstance(action, ir.APop)
                cap = decl.type.capacity
                writes[f"{cid}.len"] = f"{cid}.len - 1"
                for i in range(cap):
                    for j, ty in enumerate(decl.type.payload):
                        writes[f"{cid}.q{i}_{j}"] = (
                            f"{cid}.q{i + 1}_{j}" if i + 1 < cap else self.literal(zero_value(ty))
                        )
        return writes

    # -- main module

    def main_module(self, components, specs: tuple[str, ...]) -> str:
        step, en_names, sym_names = self.step_var, self.instance_names, self.ctor_names
        writers: dict[str, list[str]] = {
            f"{instance}.{field}": [] for instance, _, fields in components for field, *_ in fields
        }
        defines, ens, syms, trans = [], [], [], ["  TRANS"]
        for proc, automaton in enumerate(self.automata):
            pid, locs, spell = self.proc_ids[proc], self.loc_syms[proc], self.guard_spell[proc]
            loc_writers = writers[f"{pid}.loc"]
            for k, t in enumerate(automaton.transitions):
                en = en_names.take(f"en_{pid}_{k}")
                sym = sym_names.take(f"t_{pid}_{k}")
                guard = render(t.guard, spell, _BINARY_OPS, "!{}")
                defines.append(f"    {en} := {pid}.loc = {locs[t.src]} & {guard};")
                loc_writers.append(sym)
                disjunct = f"      (next({step}) = {sym} & {en} & next({pid}.loc) = {locs[t.dst]}"
                if t.actions:
                    for field, value in self._effects(proc, t).items():
                        writers[field].append(sym)
                        disjunct += f" & next({field}) = {value}"
                trans += (disjunct + ")", "    |")
                ens.append(en)
                syms.append(sym)
        step_none = sym_names.fresh("t_none")
        syms.append(step_none)
        trans.append(f"      (next({step}) = {step_none} & !{self.any_enabled});")
        for field, writing in writers.items():
            keep = f"next({field}) = {field}"
            if writing:
                keep = f"next({step}) in {{{', '.join(writing)}}} | {keep}"
            trans.append(f"  TRANS {keep};")
        lines = ["MODULE main", "  VAR"]
        lines += [f"    {instance} : {name};" for instance, name, _ in components]
        lines.append(f"    {step} : {{{', '.join(syms)}}};")
        lines += (f"  INIT {step} = {step_none};", "  DEFINE")
        lines += defines
        lines.append(f"    {self.any_enabled} := {' | '.join(ens) or 'FALSE'};")
        lines += trans
        lines += [f"  {spec}" for spec in specs]
        lines.append("")  # so the text ends in a newline
        return "\n".join(lines)


def module(name: str, fields: list[_Field]) -> str:
    """A component module: its VAR declarations and one INIT, from its fields."""
    lines = [f"MODULE {name}", "  VAR"]
    lines += [f"    {field} : {ty};" for field, ty, _ in fields]
    lines.append("  INIT " + " & ".join(init for _, _, init in fields) + ";")
    return "\n".join(lines) + "\n"


def emit_smv(system: CheckedModel, automata) -> SmvDocument:
    """Encode the woven system (faults included) as SMV module texts."""
    emitter = _Emitter(system, tuple(automata))
    components = emitter.components()
    modules = tuple(module(name, fields) for _, name, fields in components)
    specs = tuple(
        f"LTLSPEC {render(spec.formula, emitter.ltl_spell, _BINARY_OPS, '!({})')};"
        for spec in system.ltl_specs
    )
    n_chans = len(system.channels)
    return SmvDocument(
        channel_modules=modules[:n_chans],
        process_modules=modules[n_chans:],
        main_module=emitter.main_module(components, specs),
    )
