"""Per-layer tracing from outside the program.

`Tracer.install()` replaces sandalc's public functions, wherever a sandalc
module holds a reference to them, with wrappers that count top-level calls
and time them; `uninstall()` puts the originals back.  A recursive call (as
`eval_prop` makes) passes straight through its wrapper, so only the
outermost call is counted and timed.  A hook whose function was never called
reports null, not 0, so a change that stops calling a layer shows.

`search_profile` is the benchmark's own BFS over `successor_transitions`:
it counts transitions fired per fault tag and times the visited-set test.
"""

from __future__ import annotations

import sys
from collections import Counter, deque
from time import perf_counter

import sandalc.checker as checker
import sandalc.faultweave as faultweave
import sandalc.ir as ir
import sandalc.lexer as lexer
import sandalc.parser as parser
import sandalc.pipeline as pipeline
import sandalc.sema as sema
import sandalc.smv as smv

FAULT_TAGS = (ir.NORMAL, ir.TIMEOUT, ir.DROP, ir.SHUTDOWN)


def _tag_counts(compiled) -> Counter:
    return Counter(t.tag for a in compiled.automata for t in a.transitions)


class Tracer:
    # (hook name, module, function name); the hook name is the metric prefix.
    FUNCTIONS = (
        ("lexer.tokenize", lexer, "tokenize"),
        ("parser.parse", parser, "parse_model"),
        ("sema.check", sema, "resolve_and_check"),
        ("sema.instantiate", sema, "instantiate"),
        ("ir.lower", ir, "lower_system"),
        ("faultweave.weave", faultweave, "weave_system"),
        ("smv.emit", smv, "emit_smv"),
        ("checker.check_spec", checker, "check_spec"),
        ("checker.successors", checker, "successors"),
        ("checker.eval_prop", checker, "eval_prop"),
        ("checker.replay", checker, "replay"),
        ("checker.format_trace", checker, "format_trace"),
        ("pipeline.build_model", pipeline, "build_model"),
    )

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()  # work done, read off arguments and results
        self._depth: Counter = Counter()
        self._suspended = False
        self._patched: list[tuple[object, str, object]] = []

    def _on_result(self, hook: str, args, result) -> None:
        if hook == "lexer.tokenize":
            self.counts["lexer.tokens"] += len(result)
        elif hook == "ir.lower":
            self.counts["ir.transitions"] += sum(_tag_counts(result).values())
        elif hook == "faultweave.weave":
            for tag, n in _tag_counts(result[0]).items():
                if tag != ir.NORMAL:
                    self.counts[f"faultweave.edges.{tag}"] += n
        elif hook == "smv.render":
            self.counts["smv.bytes"] += len(result.encode())
        elif hook == "checker.check_spec":
            self.counts["checker.states"] += result.states_explored
        elif hook == "checker.replay":
            cex = args[1]
            self.counts["checker.cex_steps"] += len(cex.prefix) + len(cex.loop or ())

    def _wrap(self, hook: str, fn):
        def hooked(*args, **kwargs):
            # Inner recursive calls, calls the search makes while replaying a
            # trace, and calls while suspended pass through uncounted.
            if self._suspended or self._depth[hook] or (
                hook == "checker.successors" and self._depth["checker.replay"]
            ):
                return fn(*args, **kwargs)
            self._depth[hook] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[hook] += perf_counter() - start
                self._depth[hook] -= 1
            self.calls[hook] += 1
            self._on_result(hook, args, result)
            return result

        hooked.__wrapped__ = fn
        return hooked

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sandalc"]
        for hook, module, name in self.FUNCTIONS:
            original = getattr(module, name)
            hooked = self._wrap(hook, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, hooked)
        render = smv.SmvDocument.render
        self._patched.append((smv.SmvDocument, "render", render))
        smv.SmvDocument.render = self._wrap("smv.render", render)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def recheck(self, fn):
        """Call fn with every hook passing calls through uncounted."""
        self._suspended = True
        try:
            return fn()
        finally:
            self._suspended = False

    # -- reporting --------------------------------------------------------

    def calls_of(self, hook: str) -> int | None:
        return self.calls[hook] or None

    def count_of(self, hook: str, counter: str) -> int | None:
        """A counter read off a hook's calls; null when the hook never ran."""
        return self.counts[counter] if self.calls[hook] else None


def ratio(num, den):
    return None if num is None or not den else num / den


def search_profile(cs) -> dict:
    """BFS over the successor relation: states, fired transitions per tag,
    new-state ratio and the time spent deduplicating successors."""
    init = checker.initial_state(cs)
    seen = {init}
    frontier = deque([init])
    fired: Counter = Counter()
    generated = 0
    dedup_s = 0.0
    while frontier:
        state = frontier.popleft()
        for _, transition, nxt in checker.successor_transitions(cs, state):
            fired[transition.tag] += 1
            generated += 1
            before = len(seen)
            start = perf_counter()
            seen.add(nxt)
            dedup_s += perf_counter() - start
            if len(seen) != before:
                frontier.append(nxt)
    return {
        "states": len(seen),
        "generated": generated,
        "fired": fired,
        "dedup_s": dedup_s,
    }
