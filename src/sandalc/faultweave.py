"""Fault weaving: automaton-to-automaton injection of declared faults.

Weaving only ever adds locations and transitions, so every behavior of the
unwoven system remains a behavior of the woven one.

Shutdown: a marked process gets one fresh absorbing location and an
unconditional crash transition from every existing location — statement
boundaries and mid-handshake locations alike, so a sender can die with the
ready flag left set.

Drop: every send over a marked channel gets an unconditional alternative that
jumps from the send's entry straight to its exit with no channel effect; the
sender cannot tell the difference.  The weaver finds the sends by their edges:
a `send.buffered` edge spans the whole send, and a rendezvous send runs from
its `send.fire` edge to the `send.done` edge that leaves the middle location.
"""

from __future__ import annotations

from .errors import NO_POS
from .ir import TRUE, CompiledSystem, ProcessAutomaton, Transition
from .record import record, replace
from .sema import CheckedModel


@record
class WeaveReport:
    shutdown_transitions: dict[str, int]  # process name -> crash edges added
    drop_transitions: dict[str, int]  # channel name -> send sites given a skip edge

    def render(self) -> str:
        lines = ["weave report:"]
        for name, count in self.shutdown_transitions.items():
            lines.append(f"  process {name}: {count} shutdown transitions")
        for name, count in self.drop_transitions.items():
            lines.append(f"  channel {name}: {count} sends may drop")
        if len(lines) == 1:
            lines.append("  no fault markers")
        return "\n".join(lines) + "\n"


def weave_shutdown(automaton: ProcessAutomaton) -> ProcessAutomaton:
    """Add the absorbing shutdown location and a crash edge from every location."""
    shutdown_loc = automaton.n_locations
    crashes = tuple(
        Transition(loc, shutdown_loc, TRUE, (), "shutdown", "shutdown", NO_POS)
        for loc in range(automaton.n_locations)
    )
    return replace(
        automaton,
        n_locations=automaton.n_locations + 1,
        transitions=automaton.transitions + crashes,
        shutdown_loc=shutdown_loc,
    )


def weave_drop(
    system: CheckedModel, automata: tuple[ProcessAutomaton, ...]
) -> tuple[tuple[ProcessAutomaton, ...], dict[str, int]]:
    """Give every send over a dropped channel a skip edge. Returns counts per channel."""
    counts = {chan.name: 0 for chan in system.channels if chan.drop_fault}
    if not counts:
        return automata, counts
    woven = []
    for automaton in automata:
        sends = [
            t for t in automaton.transitions
            if t.kind in ("send.fire", "send.buffered")
            and system.channels[t.actions[0].chan].drop_fault
        ]
        # A rendezvous skip ends where the send.done edge from the middle
        # location ends; a shutdown process has a crash edge there too.
        done = {t.src: t.dst for t in automaton.transitions if t.kind == "send.done"}
        skips = tuple(
            Transition(t.src, done[t.dst] if t.kind == "send.fire" else t.dst,
                       TRUE, (), "drop", f"drop {t.desc}", t.pos)
            for t in sends
        )
        for t in sends:
            counts[system.channels[t.actions[0].chan].name] += 1
        if skips:
            automaton = replace(automaton, transitions=automaton.transitions + skips)
        woven.append(automaton)
    return tuple(woven), counts


def weave_system(compiled: CompiledSystem) -> tuple[CompiledSystem, WeaveReport]:
    """Apply every fault marker of the instance to the freshly lowered automata."""
    system = compiled.instance
    shutdown_counts: dict[str, int] = {}
    automata = []
    for proc, automaton in zip(system.processes, compiled.automata):
        if proc.shutdown_fault:
            shutdown_counts[proc.name] = automaton.n_locations
            automaton = weave_shutdown(automaton)
        automata.append(automaton)
    woven, drop_counts = weave_drop(system, tuple(automata))
    report = WeaveReport(shutdown_transitions=shutdown_counts, drop_transitions=drop_counts)
    return CompiledSystem(instance=system, automata=woven), report
