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

Guards, values and ltl formulas print through sema.render and the emitter's
leaf tables.  Faults are already present in the woven automata, so the output
needs no separate fault handling.  Emission is byte-deterministic.
"""

from __future__ import annotations

import re

from . import ir
from .record import record
from .sema import BoolType, EnumType, PAtom, PBool, PEnum, Prop, SystemInstance, Value
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
    channel_modules: tuple[tuple[str, str], ...]  # (module name, module text)
    process_modules: tuple[tuple[str, str], ...]
    main_module: str
    spec_lines: tuple[str, ...]

    def render(self) -> str:
        parts = [text for _, text in self.channel_modules]
        parts += [text for _, text in self.process_modules]
        parts.append(self.main_module)
        return "\n".join(parts)


class _Emitter:
    def __init__(self, system: SystemInstance, automata) -> None:
        self.system = system
        self.automata = automata
        self.ctor_names = _Sanitizer()
        self.instance_names = _Sanitizer()
        # Enum constructors first: they are global symbolic constants.
        for enum in system.checked.enums.values():
            for ctor in enum.constructors:
                self.ctor_names.name(ctor)
        self.chan_ids = [self.instance_names.name(c.name) for c in system.channels]
        self.proc_ids = [self.instance_names.name(p.name) for p in system.processes]
        self.var_ids: list[dict[int, str]] = []
        for automaton in automata:
            names = _Sanitizer()
            names.used.add("loc")
            self.var_ids.append(
                {slot: names.name(info.name) for slot, info in enumerate(automaton.locals)}
            )
        # Bookkeeping names in main share a namespace with the instances;
        # scheduler symbols share the symbolic-constant namespace with the
        # enum constructors.
        aux = self.instance_names
        self.step_var = aux.fresh("step")
        self.any_enabled = aux.fresh("any_enabled")
        self.en_ids = {
            (proc, k): aux.fresh(f"en_{self.proc_ids[proc]}_{k}")
            for proc, automaton in enumerate(automata)
            for k in range(len(automaton.transitions))
        }
        self.step_syms = {
            key: self.ctor_names.fresh(f"t_{self.proc_ids[key[0]]}_{key[1]}")
            for key in self.en_ids
        }
        self.step_none = self.ctor_names.fresh("t_none")
        # Leaf spellings for sema.render: one guard table per process, whose
        # locals read as `pid.var`, and one ltl table.  No leaf refers to
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

    def loc_symbol(self, proc: int, loc: int) -> str:
        if self.automata[proc].shutdown_loc == loc:
            return "shutdown"
        return f"l{loc}"

    def expr(self, e: ir.IrExpr, proc: int) -> str:
        """A guard or value: a local of `proc` is `pid.var`, `!` binds bare."""
        return render(e, self.guard_spell[proc], _BINARY_OPS, "!{}")

    def prop(self, p: Prop) -> str:
        """An ltl formula: atoms name any process, `!` parenthesizes."""
        return render(p, self.ltl_spell, _BINARY_OPS, "!({})")

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
        automaton = self.automata[proc]
        locs = ", ".join(self.loc_symbol(proc, loc) for loc in range(automaton.n_locations))
        loc = ("loc", f"{{{locs}}}", f"loc = {self.loc_symbol(proc, automaton.entry)}")
        return [loc] + [
            self.value_field(self.var_ids[proc][slot], info.type)
            for slot, info in enumerate(automaton.locals)
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
        """Next-state value per field the transition writes."""
        writes: dict[str, str] = {f"{self.proc_ids[proc]}.loc": self.loc_symbol(proc, t.dst)}
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
        step = self.step_var
        lines = ["MODULE main", "  VAR"]
        lines += [f"    {instance} : {name};" for instance, name, _ in components]
        symbols = ", ".join([*self.step_syms.values(), self.step_none])
        lines.append(f"    {step} : {{{symbols}}};")
        lines.append(f"  INIT {step} = {self.step_none};")

        lines.append("  DEFINE")
        for proc, automaton in enumerate(self.automata):
            pid = self.proc_ids[proc]
            for k, t in enumerate(automaton.transitions):
                src = self.loc_symbol(proc, t.src)
                guard = self.expr(t.guard, proc)
                lines.append(
                    f"    {self.en_ids[proc, k]} := {pid}.loc = {src} & {guard};"
                )
        any_enabled = " | ".join(self.en_ids.values()) or "FALSE"
        lines.append(f"    {self.any_enabled} := {any_enabled};")

        writers: dict[str, list[str]] = {
            f"{instance}.{field}": []
            for instance, _, fields in components
            for field, _, _ in fields
        }
        disjuncts = []
        for (proc, k), sym in self.step_syms.items():
            conj = [f"next({step}) = {sym}", self.en_ids[proc, k]]
            for field, value in self._effects(proc, self.automata[proc].transitions[k]).items():
                writers[field].append(sym)
                conj.append(f"next({field}) = {value}")
            disjuncts.append("      (" + " & ".join(conj) + ")")
        disjuncts.append(f"      (next({step}) = {self.step_none} & !{self.any_enabled})")
        lines.append("  TRANS")
        lines.append("\n    |\n".join(disjuncts) + ";")
        for field, syms in writers.items():
            keep = f"next({field}) = {field}"
            if syms:
                keep = f"next({step}) in {{{', '.join(syms)}}} | {keep}"
            lines.append(f"  TRANS {keep};")
        lines.extend(f"  {spec}" for spec in specs)
        return "\n".join(lines) + "\n"


def module(name: str, fields: list[_Field]) -> tuple[str, str]:
    """A component module: its VAR declarations and one INIT, from its fields."""
    lines = [f"MODULE {name}", "  VAR"]
    lines += [f"    {field} : {ty};" for field, ty, _ in fields]
    lines.append("  INIT " + " & ".join(init for _, _, init in fields) + ";")
    return name, "\n".join(lines) + "\n"


def emit_smv(system: SystemInstance, automata) -> SmvDocument:
    """Encode the woven system (faults included) as SMV module texts."""
    emitter = _Emitter(system, tuple(automata))
    components = emitter.components()
    modules = tuple(module(name, fields) for _, name, fields in components)
    specs = tuple(f"LTLSPEC {emitter.prop(spec.formula)};" for spec in system.ltl_specs)
    n_chans = len(system.channels)
    return SmvDocument(
        channel_modules=modules[:n_chans],
        process_modules=modules[n_chans:],
        main_module=emitter.main_module(components, specs),
        spec_lines=specs,
    )
