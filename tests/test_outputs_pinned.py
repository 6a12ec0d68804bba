"""Every observable output of the compiler, pinned by sha256.

For each source (the corpus, the golden models and every distinct job
source of the benchmark's four workloads) this pins the weave report, the
unwoven and woven `dump-ir` text and the emitted SMV; for sources with at
most MAX_CHECKED_PROCS processes also each spec's verdict, `states_explored`
and counterexample text.  A refactor that claims byte-identical output must
leave tests/golden/outputs.json unchanged.

Regenerate the digests and the golden texts other tests compare with
(tests/golden/<corpus model>.smv, conditions.smv and conditions.dump), only
for an intended change of output, with
    PYTHONPATH=src python tests/test_outputs_pinned.py
and review the diff.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from sandalc.checker import _read_sets, check_spec, format_trace
from sandalc.corpus import MODEL_NAMES, corpus_source
from sandalc.ir import ASetVar, dump_automaton
from sandalc.pipeline import build_model
from sandalc.sema import PAtom
from sandalc.smv import emit_smv

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DIGESTS = GOLDEN / "outputs.json"
MAX_CHECKED_PROCS = 12


def _sources() -> dict[str, str]:
    """Source name -> text, each distinct text once under its first name."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    named = [(f"corpus/{name}", corpus_source(name)) for name in MODEL_NAMES]
    named += [(f"golden/{p.name}", p.read_text()) for p in sorted(GOLDEN.glob("*.sandal"))]
    for workload in ("safety-sweep", "liveness-sweep", "small-models", "compile-wide"):
        named += [(f"bench/{job.name}", job.source) for job in workloads.make_jobs(workload)]
    sources: dict[str, str] = {}
    seen = set()
    for name, text in named:
        if text not in seen:
            seen.add(text)
            sources[name] = text
    return sources


SOURCES = _sources()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(source: str) -> dict[str, str]:
    """Part name -> digest of that output."""
    built = build_model(source)
    parts = {
        "report": built.report.render(),
        "unwoven": "".join(dump_automaton(a, built.system) for a in built.unwoven.automata),
        "woven": "".join(dump_automaton(a, built.system) for a in built.woven.automata),
        "smv": emit_smv(built.system, built.woven.automata).render(),
    }
    if len(built.system.processes) <= MAX_CHECKED_PROCS:
        for k, spec in enumerate(built.system.ltl_specs, start=1):
            verdict = check_spec(built.woven, spec)
            text = f"{verdict.result.value} {verdict.states_explored}\n"
            if verdict.counterexample is not None:
                text += format_trace(built.woven, verdict.counterexample)
            parts[f"spec{k}"] = text
    return {part: _digest(text) for part, text in parts.items()}


def test_pinned_sources_are_the_current_sources():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_outputs_match_pinned_digests(name):
    pinned = json.loads(DIGESTS.read_text())[name]
    actual = outputs(SOURCES[name])
    changed = sorted(p for p in pinned.keys() | actual.keys() if pinned.get(p) != actual.get(p))
    assert not changed, f"{name}: changed output in {', '.join(changed)}"


def test_no_woven_edge_has_two_actions_on_one_channel():
    """The checker's `_apply` replaces a whole channel record per action,
    while the emitted TRANS sets one field per `next()`; the two take the
    same step as long as no edge acts twice on one channel."""
    edges = 0
    for name, source in SOURCES.items():
        for automaton in build_model(source).woven.automata:
            for t in automaton.transitions:
                chans = [a.chan for a in t.actions if not isinstance(a, ASetVar)]
                assert len(chans) == len(set(chans)), f"{name}: {automaton.name}: {t.label}"
            edges += len(automaton.transitions)
    assert edges > len(SOURCES)


def _nodes(value):
    """A value and everything under it, walked through record fields (pos
    included) and tuples."""
    yield value
    if hasattr(value, "__record_fields__"):
        for field in value.__record_fields__:
            yield from _nodes(getattr(value, field))
    elif isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)


def test_every_channel_an_edge_uses_is_read_at_its_source():
    """The search memoizes a process's moves on its own record and the
    channels its location reads.  That is sound only if no woven guard,
    value or payload reads another process (a PAtom), and if every channel
    an edge uses is in its source location's read set.  `_moves_of`, which
    fills that memo, and `successors` rely on the first condition too: both
    evaluate guards, values and payloads with no process records at all."""
    edges = 0
    for name, source in SOURCES.items():
        cs = build_model(source).woven
        for automaton in cs.automata:
            reads = _read_sets(automaton)
            for t in automaton.transitions:
                nodes = list(_nodes((t.guard, t.actions)))
                where = f"{name}: {automaton.name}: {t.label}"
                assert not any(isinstance(n, PAtom) for n in nodes), where
                assert {n.chan for n in nodes if hasattr(n, "chan")} <= set(reads[t.src]), where
            edges += len(automaton.transitions)
    assert edges > len(SOURCES)


def golden_texts() -> dict[Path, str]:
    """Golden file -> its current text."""
    texts = {}
    for name in MODEL_NAMES:
        built = build_model(corpus_source(name))
        texts[GOLDEN / f"{name}.smv"] = emit_smv(built.system, built.woven.automata).render()
    built = build_model((GOLDEN / "conditions.sandal").read_text())
    texts[GOLDEN / "conditions.smv"] = emit_smv(built.system, built.woven.automata).render()
    texts[GOLDEN / "conditions.dump"] = "".join(
        dump_automaton(a, built.system) for a in built.woven.automata
    )
    return texts


if __name__ == "__main__":
    digests = {name: outputs(text) for name, text in sorted(SOURCES.items())}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} sources to {DIGESTS}")
    for path, text in golden_texts().items():
        path.write_text(text)
        print(f"wrote {path}")
