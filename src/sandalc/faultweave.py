"""Fault weaving: automaton-to-automaton injection of declared faults.

Weaving only ever adds locations and transitions, so every behavior of the
unwoven system remains a behavior of the woven one.

Shutdown: a marked process gets one fresh absorbing location and an
unconditional crash transition from every existing location — statement
boundaries and mid-handshake locations alike, so a sender can die with the
ready flag left set.

Drop: every send over a marked channel gets an unconditional alternative that
jumps from the send's entry straight to its exit with no channel effect; the
sender cannot tell the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import NO_POS
from .ir import DROP, SHUTDOWN, TRUE, CompiledSystem, ProcessAutomaton, Transition
from .sema import SystemInstance


@dataclass(frozen=True)
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
        Transition(
            src=loc,
            dst=shutdown_loc,
            guard=TRUE,
            actions=(),
            kind="shutdown",
            desc="shutdown",
            pos=NO_POS,
            tag=SHUTDOWN,
        )
        for loc in range(automaton.n_locations)
    )
    return replace(
        automaton,
        n_locations=automaton.n_locations + 1,
        transitions=automaton.transitions + crashes,
        shutdown_loc=shutdown_loc,
    )


def weave_drop(
    system: SystemInstance, automata: tuple[ProcessAutomaton, ...]
) -> tuple[tuple[ProcessAutomaton, ...], dict[str, int]]:
    """Give every send over a dropped channel a skip edge. Returns counts per channel."""
    dropped = {i for i, chan in enumerate(system.channels) if chan.drop_fault}
    counts = {chan.name: 0 for chan in system.channels if chan.drop_fault}
    woven = []
    for automaton in automata:
        todo = [site for site in automaton.send_sites if site.chan in dropped]
        if not todo:
            woven.append(automaton)
            continue
        skips = tuple(
            Transition(
                src=site.src,
                dst=site.dst,
                guard=TRUE,
                actions=(),
                kind="drop",
                desc=f"drop {site.desc}",
                pos=site.pos,
                tag=DROP,
            )
            for site in todo
        )
        for site in todo:
            counts[system.channels[site.chan].name] += 1
        woven.append(replace(automaton, transitions=automaton.transitions + skips))
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
    report = WeaveReport(
        shutdown_transitions=shutdown_counts, drop_transitions=drop_counts
    )
    return CompiledSystem(instance=system, automata=woven), report
