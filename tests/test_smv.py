import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sandalc.checker import check_spec, format_trace
from sandalc.cli import run
from sandalc.corpus import MODEL_NAMES, corpus_source
from sandalc.pipeline import build_model
from sandalc.smv import emit_smv

GOLDEN = Path(__file__).parent / "golden"


def emit(source):
    built = build_model(source)
    return emit_smv(built.system, built.woven.automata)


def spec_lines(doc):
    """The LTLSPEC lines, which close main."""
    return re.findall(r"^  (LTLSPEC .*)$", doc.main_module, re.M)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_emission_is_byte_deterministic(name):
    source = corpus_source(name)
    assert emit(source).render() == emit(source).render()


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_emission_matches_golden_file(name):
    got = emit(corpus_source(name)).render()
    assert got == (GOLDEN / f"{name}.smv").read_text()


def test_pingpong_document_structure():
    doc = emit(corpus_source("pingpong"))
    assert len(doc.channel_modules) == 2
    assert len(doc.process_modules) == 2
    assert doc.main_module.startswith("MODULE main")
    assert spec_lines(doc) == []


def test_two_phase_commit_document_structure():
    doc = emit(corpus_source("2pc_allfaults"))
    assert len(doc.channel_modules) == 4
    assert len(doc.process_modules) == 3
    # every process was woven with a shutdown location
    assert all("shutdown" in text for text in doc.process_modules)
    [spec] = spec_lines(doc)
    assert spec.startswith("LTLSPEC F (G (")
    assert doc.main_module.endswith(f"  {spec}\n")
    # skip edges for dropped channels appear as extra transitions in main:
    # each dropped send adds one unconditional location jump
    assert doc.main_module.count("en_arbiter_") >= 27 + 6  # crashes + drops included
    # no fairness constraint: the automata are acyclic, so every infinite run
    # ends in the stutter, where no process is enabled
    main = doc.main_module
    assert not re.search(r"^\s*(JUSTICE|FAIRNESS|COMPASSION)\b", main, re.M)
    # `step` has one symbol per woven transition plus `t_none`
    built = build_model(corpus_source("2pc_allfaults"))
    transitions = [len(a.transitions) for a in built.woven.automata]
    [symbols] = re.findall(r"^    step : \{(.*)\};$", main, re.M)
    assert symbols.split(", ") == [
        f"t_{pid}_{k}"
        for pid, count in zip(("arbiter", "worker1", "worker2"), transitions)
        for k in range(count)
    ] + ["t_none"]
    # `any_enabled` is the disjunction of every `en_` symbol, in transition order
    en_symbols = ["en_" + sym[2:] for sym in symbols.split(", ")[:-1]]
    assert re.findall(r"^    (en_\w+) := ", main, re.M) == en_symbols
    assert f"    any_enabled := {' | '.join(en_symbols)};" in main.splitlines()
    assert main.count("\n    |\n") == sum(transitions)  # a disjunct each, and one for t_none


def test_size_grows_linearly_with_the_worker_count():
    """Doubling the workers of all-fault 2PC at most about doubles the text.

    Each TRANS disjunct lists only the fields its transition writes, and one
    keep rule per field covers the rest, so the size is linear in
    transitions plus writes."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    from models import family_member

    size = {n: len(emit(family_member(n, "allfaults")).render().encode()) for n in (16, 32)}
    assert size[32] <= 2.2 * size[16]


def test_empty_system_emits_bare_main():
    doc = emit("init {}")
    assert doc.channel_modules == ()
    assert doc.process_modules == ()
    assert spec_lines(doc) == []
    assert "MODULE main" in doc.main_module


def test_reserved_word_constructors_are_sanitized():
    source = (
        "data V { TRUE_, MODULE, next }\n"
        "proc P(c channel { V }) { send(c, MODULE) }\n"
        "init { c: channel { V }, p: P(c) }"
    )
    doc = emit(source)
    chan_text = doc.channel_modules[0]
    assert "{TRUE_, MODULE_2, next_2}" in chan_text.replace(", ", ", ")


def test_bookkeeping_names_dodge_user_names():
    """Instances and constructors named like emitter-internal identifiers."""
    source = (
        "data V { t_none, t_p_0 }\n"
        "proc P(c channel { V }) { send(c, t_p_0) }\n"
        "init { step: channel { V }, any_enabled: channel { V },\n"
        "  p: P(step), en_p_0: P(any_enabled) }"
    )
    doc = emit(source)
    main = doc.main_module
    declared = re.findall(r"^\s{4}(\w+) :=? ", main, re.M)
    assert len(declared) == len(set(declared))
    assert {"step", "any_enabled", "p", "en_p_0"} <= set(declared)
    [(step_var, symbols)] = re.findall(r"^\s{4}(\w+) : \{(.*)\};$", main, re.M)
    assert step_var not in ("step", "any_enabled", "p", "en_p_0")
    symbols = symbols.split(", ")
    assert len(symbols) == len(set(symbols))
    assert not {"t_none", "t_p_0"} & set(symbols)
    assert "{t_none, t_p_0}" in doc.channel_modules[0]
    assert f"INIT {step_var} = {symbols[-1]};" in main


def test_name_allocation_order_is_pinned():
    """`en_` names are allocated in (process, k) order after the instances,
    and the `t_` symbols before `t_none`, so every collision suffix is fixed."""
    source = (
        "data V { t_none, b }\n"
        "proc P(c channel { V }) {\n  send(c, t_none)\n  send(c, b)\n}\n"
        "init { en_none_0: channel { V }, none: P(en_none_0) }\n"
    )
    lines = emit(source).main_module.splitlines()
    assert [line.split(" := ")[0].strip() for line in lines if " := none.loc" in line] == [
        "en_none_0_2", "en_none_1", "en_none_2", "en_none_3"
    ]
    assert "    step : {t_none_0, t_none_1, t_none_2, t_none_3, t_none_4};" in lines
    assert "  INIT step = t_none_4;" in lines


def _keep_rule_sources():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    from models import family_member

    sources = [pytest.param(corpus_source(name), id=name) for name in MODEL_NAMES]
    sources.append(pytest.param((GOLDEN / "conditions.sandal").read_text(), id="conditions"))
    return sources + [pytest.param(family_member(3, "allfaults"), id="n3-allfaults")]


@pytest.mark.parametrize("source", _keep_rule_sources())
def test_keep_rules_name_exactly_the_writers(source):
    """Each state field keeps its value unless `next(step)` is one of the
    step symbols whose TRANS disjunct assigns `next(field)`, no more, no less."""
    doc = emit(source)
    main = doc.main_module
    fields_of = {
        re.match(r"MODULE (\w+)\n", text)[1]: re.findall(r"^    (\w+) : ", text, re.M)
        for text in doc.channel_modules + doc.process_modules
    }
    fields = [
        f"{instance}.{field}"
        for instance, name in re.findall(r"^    (\w+) : (\w+);$", main, re.M)
        for field in fields_of[name]
    ]
    writes = {
        sym: re.findall(r"next\(([\w.]+)\) = ", rest)
        for sym, rest in re.findall(r"^      \(next\(step\) = (\w+) & (.*)\);?$", main, re.M)
    }
    assert len(writes) == main.count("\n    |\n") + 1  # every disjunct, the stutter too
    keep = r"^  TRANS (?:next\(step\) in \{(.*)\} \| )?next\(([\w.]+)\) = \2;$"
    keeps = re.findall(keep, main, re.M)
    assert [field for _, field in keeps] == fields
    for syms, field in keeps:
        writers = [sym for sym, written in writes.items() if field in written]
        assert (syms.split(", ") if syms else []) == writers, field


def test_non_ascii_names_become_distinct_ascii_identifiers():
    import re

    source = (
        "data Résp { Ok, Nö, Nü }\n"
        "proc Wörker(c channel { Résp }) {\n"
        "  var rü Résp\n"
        "  var ré Résp = Nü\n"
        "  recv(c, rü)\n"
        "}\n"
        "proc Wärker(c channel { Résp }) { send(c, Nö) }\n"
        "init { çh: channel { Résp }, wö: Wörker(çh), wä: Wärker(çh) }\n"
        "ltl { G (wö.rü != Nö) }"
    )
    text = emit(source).render()
    assert text.isascii()
    assert "{Ok, N_, N__2}" in text
    for module in text.split("MODULE ")[1:]:
        names = re.findall(r"^\s{4}(\w+) :", module, re.M)
        assert len(names) == len(set(names)), module
    # The checker's trace keeps the source names.
    built = build_model(source)
    verdict = check_spec(built.woven, built.system.ltl_specs[0])
    assert "wö.rü = Nö" in format_trace(built.woven, verdict.counterexample)


def test_a_thousand_colliding_names_stay_distinct(tmp_path):
    """1,005 channel names that all sanitize to `c_` get suffixes up to 1005."""
    import re

    names = [f"c{chr(0x4E00 + i)}" for i in range(1005)]
    path = tmp_path / "wide.sandal"
    path.write_text("init { " + ", ".join(f"{n}: channel {{ bool }}" for n in names) + " }\n")
    out = tmp_path / "wide.smv"
    assert run(["compile", str(path), "-o", str(out)]) == 0
    ids = re.findall(r"^MODULE chan_(\w+)$", out.read_text(), re.M)
    assert len(ids) == len(set(ids)) == 1005


def test_reserved_instance_names_are_sanitized():
    source = (
        "proc P(c channel { bool }) { send(c, true) }\n"
        "init { case: channel { bool }, esac: P(case) }"
    )
    doc = emit(source)
    assert "case_2 : chan_case_2;" in doc.main_module
    assert "esac_2 : proc_esac_2;" in doc.main_module


def test_formula_outside_checker_fragment_still_emits():
    source = (
        "proc P() { var x bool\n  x = true }\n"
        "init { p: P() }\n"
        "ltl { G (F (G (p.x))) }\n"
    )
    doc = emit(source)
    assert spec_lines(doc) == ["LTLSPEC G (F (G (p.x)));"]


def test_buffered_channel_encoding():
    source = (
        "proc S(c channel [2] { bool }) { send(c, true) }\n"
        "proc R(c channel [2] { bool }) { var x bool\n  recv(c, x) }\n"
        "init { c: channel [2] { bool }, s: S(c), r: R(c) }"
    )
    doc = emit(source)
    chan_text = doc.channel_modules[0]
    assert "len : 0..2;" in chan_text
    assert "q0_0" in chan_text and "q1_0" in chan_text
    assert "c.len < 2" in doc.main_module  # send guard
    assert "c.len > 0" in doc.main_module  # recv guard


@pytest.mark.skipif(
    shutil.which("NuSMV") is None and shutil.which("nusmv") is None,
    reason="no external SMV checker in this environment",
)
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_external_smv_agrees_with_builtin(name, tmp_path, builds):
    """Environment-gated: external verdicts must match the built-in checker."""
    from sandalc.checker import check_spec

    binary = shutil.which("NuSMV") or shutil.which("nusmv")
    built = builds[name]
    doc = emit_smv(built.system, built.woven.automata)
    smv_file = tmp_path / f"{name}.smv"
    smv_file.write_text(doc.render())
    proc = subprocess.run(
        [binary, str(smv_file)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    verdicts = [
        "is true" in line
        for line in proc.stdout.splitlines()
        if "-- specification" in line
    ]
    expected = [
        check_spec(built.woven, spec).passed for spec in built.system.ltl_specs
    ]
    assert verdicts == expected
