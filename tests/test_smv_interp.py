"""The emitted SMV text means what the built-in checker explores.

tests/smv_interp.py reads the text `sandalc compile` writes and explores it
on its own.  For every model here its reachable states and edges, with the
`step` bookkeeping variable projected away, equal the checker's; every
LTLSPEC's propositional core agrees with `eval_prop` on every reachable
state, and its verdict is the checker's.
"""

import sys
from operator import itemgetter
from pathlib import Path

import pytest

from sandalc.checker import check_spec, eval_prop, extract_pattern
from sandalc.corpus import MODEL_NAMES, corpus_source
from sandalc.pipeline import build_model
from sandalc.sema import EnumType, zero_value
from sandalc.smv import emit_smv

from oracles import build_graph
from smv_interp import SmvError, SmvModel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from models import SPEC_KINDS, family_member, spec_text, with_spec  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"

# Bench sweep members with at most 7,000 states; n = 2 is the corpus.
_SWEEP = {"nofault": (1, 3, 4), "timeout": (1, 3), "drop": (1, 3), "shutdown": (1,),
          "allfaults": (1,)}


def _sweep_source(n: int, mix: str) -> str:
    source = family_member(n, mix)
    for kind in SPEC_KINDS:
        if kind != "stable":  # the family's own spec
            source = with_spec(source, spec_text(kind, n))
    return source


MODELS = {f"corpus/{name}": corpus_source(name) for name in MODEL_NAMES}
MODELS.update({f"golden/{p.name}": p.read_text() for p in sorted(GOLDEN.glob("*.sandal"))})
MODELS["empty"] = "init {}\nltl { F (false) }\n"
MODELS["channels-only"] = (
    "init { c: channel { bool }, q: channel [2] { bool } }\n"
    "ltl { F (false) }\nltl { G (F (false)) }\nltl { G (true) }\n"
)
# (states, edges, stutter self-loops) that both sides give.
_SIZES = {"corpus/2pc_allfaults": (6_680, 22_084, 360), "corpus/2pc_shutdown": (1_456, 4_117, 127)}
MODELS.update({
    f"bench/2pc-n{n}-{mix}": _sweep_source(n, mix) for mix, ns in _SWEEP.items() for n in ns
})


def smv_valuation(cs, state, domains) -> tuple:
    """The checker's state as SMV field values, in the emitted VAR order.

    An empty rendezvous buffer and the free slots of a queue read as zero
    values; an enum value is the SMV constant at its constructor's index."""
    typed = []  # (value, enum type or None)
    for decl, chan in zip(cs.instance.channels, state.chans):
        payload = decl.type.payload
        zeros = tuple(zero_value(ty) for ty in payload)
        if decl.type.is_buffered:
            typed.append((len(chan.queue), None))
            for i in range(decl.type.capacity):
                item = chan.queue[i] if i < len(chan.queue) else zeros
                typed += zip(item, payload)
        else:
            typed += [(chan.ready, None), (chan.received, None)]
            typed += zip(zeros if chan.buf is None else chan.buf, payload)
    for automaton, proc in zip(cs.automata, state.procs):
        loc = "shutdown" if proc.loc == automaton.shutdown_loc else f"l{proc.loc}"
        typed.append((loc, None))
        typed += zip(proc.vars, (slot.type for slot in automaton.locals))
    assert len(typed) == len(domains)
    return tuple(
        domain[ty.constructors.index(value)] if isinstance(ty, EnumType) else value
        for (value, ty), domain in zip(typed, domains)
    )


@pytest.mark.parametrize("name", sorted(MODELS))
def test_smv_text_agrees_with_the_checker(name):
    built = build_model(MODELS[name])
    cs = built.woven
    model = SmvModel(emit_smv(built.system, cs.automata).render())
    # Main's own variables (`step`) are bookkeeping; every field is `inst.f`.
    fields = [i for i, var in enumerate(model.names) if "." in var]
    domains = [model.domains[i] for i in fields]
    project = (lambda s: tuple(s[i] for i in fields)) if len(fields) < 2 else itemgetter(*fields)

    reached = model.reachable
    smv_edges = {(project(s), project(t)) for s in reached for t in model.successors(s)}
    init, succ = build_graph(cs)
    as_smv = {state: smv_valuation(cs, state, domains) for state in succ}
    checker_edges = {(as_smv[s], as_smv[t]) for s, entries in succ.items() for _, _, t in entries}
    assert {project(s) for s in model.initial_states()} == {as_smv[init]}
    assert {project(s) for s in reached} == set(as_smv.values())
    assert len(as_smv) == len(set(as_smv.values()))
    assert smv_edges == checker_edges
    if name in _SIZES:
        stutters = sum(s == t for s, t in smv_edges)
        assert (len(as_smv), len(smv_edges), stutters) == _SIZES[name]

    # The stutter is the only step that leaves every field unchanged.
    stutter_entered = {t for s in reached for t in model.successors(s) if project(t) == project(s)}
    assert stutter_entered

    of_field = {v: s for s, v in as_smv.items()}
    assert len(model.specs) == len(built.system.ltl_specs)
    for k, ((ops, core), spec) in enumerate(zip(model.specs, built.system.ltl_specs)):
        pattern, prop = extract_pattern(spec.formula)
        assert ops.replace("GG", "G").replace("FF", "F") == pattern
        for s in reached:
            assert core(s) == eval_prop(prop, of_field[project(s)]), spec.text
        assert model.holds(k) == check_spec(cs, spec).passed, spec.text


MINI = """\
MODULE counter
  VAR
    n : 0..2;
    up : boolean;
  INIT n = 0 & up;

MODULE main
  VAR
    c : counter;
    flag : {lo, hi};
  DEFINE
    top := c.n = 2;
  TRANS
      (next(c.n) = c.n + 1 & next(c.up) = c.up & !top)
    |
      (top & next(c.n) = c.n & next(c.up) = c.up);
"""


def test_interpreter_steps_and_leaves_unconstrained_variables_free():
    model = SmvModel(MINI)
    assert model.names == ["c.n", "c.up", "flag"]
    assert model.initial_states() == {(0, True, "lo"), (0, True, "hi")}
    assert model.successors((0, True, "lo")) == {(1, True, "lo"), (1, True, "hi")}
    assert model.successors((2, True, "hi")) == {(2, True, "lo"), (2, True, "hi")}
    assert len(model.reachable) == 6


@pytest.mark.parametrize("old, new", [
    ("& !top)", "& !c.n > 0)"),  # `!` binds tighter than `>`: `!` of an integer
    ("& !top)", ")"),  # from 2, next(c.n) = 3 is outside 0..2
    ("next(c.up) = c.up & !top", "next(c.up) = c.n & !top"),  # boolean = integer
    ("top := c.n = 2", "top := c.n = two"),  # an undeclared constant
    ("(top & next", "(topp & next"),  # an undeclared name
])
def test_interpreter_rejects_ill_formed_text(old, new):
    assert old in MINI
    with pytest.raises(SmvError):
        SmvModel(MINI.replace(old, new)).reachable
