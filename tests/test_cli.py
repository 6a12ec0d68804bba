import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sandalc
from sandalc.cli import run
from sandalc.corpus import corpus, corpus_source

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from models import family_member, with_spec  # noqa: E402


@pytest.fixture(scope="module")
def paths():
    return {name: str(path) for name, path in corpus().items()}


EXPECTED_EXITS = {
    "pingpong": 0,  # no ltl blocks: nothing to refute
    "2pc_nofault": 0,
    "2pc_timeout": 0,
    "2pc_drop": 1,
    "2pc_shutdown": 1,
    "2pc_allfaults": 1,
}


@pytest.mark.parametrize("name, expected", sorted(EXPECTED_EXITS.items()))
def test_check_exit_code_contract(paths, name, expected, capsys):
    code = run(["check", paths[name]])
    out = capsys.readouterr().out
    assert code == expected
    if name == "pingpong":
        assert "no ltl properties" in out
    elif expected == 0:
        assert "PASS" in out
    else:
        assert "FAIL" in out
        assert "LOOP back to step #" in out  # a lasso trace was printed


def test_check_system_without_processes(tmp_path, capsys):
    path = tmp_path / "empty.sandal"
    formulas = ("G (false)", "F (false)", "F (G (false))", "G (F (false))")
    specs = "".join(f"ltl {{ {f} }}\n" for f in formulas)
    path.write_text("init { c: channel { bool } }\n" + specs)
    assert run(["check", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line for line in lines if line in ("PASS", "FAIL")]
    assert verdicts == ["FAIL", "FAIL", "FAIL", "FAIL"]


def test_check_prints_pass_line(paths, capsys):
    assert run(["check", paths["2pc_nofault"]]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "PASS" in out  # a bare PASS line per property


def test_compile_writes_smv_file(paths, tmp_path, capsys):
    out_file = tmp_path / "out.smv"
    assert run(["compile", paths["pingpong"], "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("MODULE")
    assert "MODULE main" in text


@pytest.mark.parametrize("target, reason", [
    ("no/such/dir/out.smv", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_compile_to_an_unwritable_path_is_a_usage_error(paths, tmp_path, target, reason, capsys):
    out_file = tmp_path / target
    assert run(["compile", paths["pingpong"], "-o", str(out_file)]) == 2
    assert capsys.readouterr().err == f"{out_file}: {reason}\n"


def test_dump_ir_lists_transitions(paths, capsys):
    assert run(["dump-ir", paths["pingpong"]]) == 0
    out = capsys.readouterr().out
    assert "process P0" in out and "process P1" in out
    assert "->" in out


def test_dump_ir_report_weave(paths, capsys):
    assert run(["dump-ir", paths["2pc_allfaults"], "--report-weave"]) == 0
    out = capsys.readouterr().out
    assert "weave report:" in out
    assert "arbiter" in out


def test_parse_error_diagnostic_format(tmp_path, capsys):
    bad = tmp_path / "bad.sandal"
    bad.write_text("proc P( {\n}\ninit {}\n")
    code = run(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"{bad}:1:")  # file:line:col: message


def test_type_error_diagnostic_format(tmp_path, capsys):
    bad = tmp_path / "bad.sandal"
    bad.write_text(
        "proc P(c channel { bool }) { var x bool\n  peek(c, x) }\n"
        "init { c: channel { bool }, p: P(c) }\n"
    )
    code = run(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert ":2:" in err.split(" ")[0]


def test_missing_file_is_usage_error(capsys):
    assert run(["check", "/nonexistent/model.sandal"]) == 2


@pytest.mark.parametrize("command", ["check", "compile", "dump-ir"])
def test_source_that_is_not_utf8_is_a_usage_error(command, tmp_path, capsys):
    model = tmp_path / "bad.sandal"
    model.write_bytes(b"proc P() { }\n\xff\xfe bad\n")
    argv = [command, str(model)]
    if command == "compile":
        argv += ["-o", str(tmp_path / "out.smv")]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{model}: not UTF-8: invalid start byte at byte offset 13\n"
    assert captured.out == ""


# Runs `sandalc` with its address space capped at its own size plus 32 MB.
_CAPPED_CHILD = (
    "import resource, sys\n"
    "from sandalc import cli\n"
    "with open('/proc/self/status') as f:\n"
    "    size = next(int(l.split()[1]) for l in f if l.startswith('VmSize:')) * 1024\n"
    "resource.setrlimit(resource.RLIMIT_AS, (size + (32 << 20),) * 2)\n"
    "sys.exit(cli.run(sys.argv[1:]))\n"
)
_SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(sandalc.__file__).parents[1]))
needs_proc_status = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs /proc/self/status"
)


def run_capped(*args):
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, *args],
        capture_output=True, text=True, env=_SRC_ENV, timeout=120,
    )


@needs_proc_status
def test_out_of_memory_in_the_search_is_a_limit(tmp_path):
    """The 32 MB are far below the 510,956 states of N=5 with `@shutdown`."""
    model = tmp_path / "n5.sandal"
    model.write_text(with_spec(family_member(5, "shutdown"), "G (true)"))
    proc = run_capped("check", "--property", "2", str(model))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    line = re.fullmatch(
        rf"{re.escape(str(model))}: out of memory after (\d+) states during the search;"
        r" lower --max-states\n",
        proc.stderr,
    )
    assert line is not None, proc.stderr
    assert 0 < int(line[1]) < 510_956
    assert proc.stdout == "property 2: G (true)\n"


@needs_proc_status
def test_out_of_memory_in_compile_is_a_limit(tmp_path):
    """The SMV text of a 5,000,000-slot buffer does not fit in 32 MB."""
    model = tmp_path / "big.sandal"
    model.write_text("init { c: channel [5000000] { bool } }\n")
    proc = run_capped("compile", str(model), "-o", str(tmp_path / "big.smv"))
    assert proc.returncode == 3
    assert proc.stderr == f"{model}: out of memory during compile\n"
    assert proc.stdout == ""


def test_state_limit_exit_code(paths, capsys):
    code = run(["check", paths["2pc_allfaults"], "--max-states", "50"])
    assert code == 3
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["-5", "0"])
def test_max_states_below_one_is_usage_error(paths, bound, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", paths["2pc_nofault"], "--max-states", bound])
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_internal_error_exit_code(paths, monkeypatch, capsys):
    def broken(source):
        raise RuntimeError("stage failed")

    monkeypatch.setattr("sandalc.cli.build_model", broken)
    code = run(["check", paths["2pc_nofault"]])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "sandalc: internal error: RuntimeError: stage failed\n"
    assert "FAIL" not in captured.out


# ---------------------------------------------------------------------------
# Nesting depth: every command works at MAX_NESTING open levels and reports a
# positioned parse error one level deeper.  Each case maps a depth to the
# model source and the text of the construct that opens the deepest level;
# the process body's block is level 1.

MAX_NESTING = 64


def _in_body(line):
    return (
        "proc P() { var x bool\n  " + line + "\n}\n"
        "init { p: P() }\nltl { G (p.x || !p.x) }\n"
    )


NESTING = {
    "parens": lambda d: (_in_body("x = " + "(" * (d - 1) + "true" + ")" * (d - 1)), "("),
    "not": lambda d: (_in_body("x = " + "!" * (d - 1) + "x"), "!"),
    "implies": lambda d: (_in_body("x = " + "x -> " * (d - 1) + "true"), "->"),
    "if": lambda d: (_in_body("if x { " * (d - 1) + "x = true" + " }" * (d - 1)), "{"),
    "else_if": lambda d: (
        _in_body("if x { x = true }" + " else if x { x = true }" * (d - 2)), "{"
    ),
    "temporal": lambda d: (
        "proc P() { var x bool }\ninit { p: P() }\nltl { " + "G " * d + "true }\n", "G"
    ),
}


def _run_all(path, tmp_path):
    return {
        "check": run(["check", str(path)]),
        "compile": run(["compile", str(path), "-o", str(tmp_path / "out.smv")]),
        "dump-ir": run(["dump-ir", str(path)]),
    }


@pytest.mark.parametrize("case", sorted(NESTING))
def test_nesting_at_the_bound_is_accepted(case, tmp_path, capsys):
    source, _ = NESTING[case](MAX_NESTING)
    model = tmp_path / "deep.sandal"
    model.write_text(source)
    codes = _run_all(model, tmp_path)
    assert codes == {"check": 0, "compile": 0, "dump-ir": 0}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("case", sorted(NESTING))
def test_nesting_past_the_bound_is_a_parse_error(case, tmp_path, capsys):
    source, opener = NESTING[case](MAX_NESTING + 1)
    model = tmp_path / "deep.sandal"
    model.write_text(source)
    lines = source.splitlines()
    line = max(range(len(lines)), key=lambda i: lines[i].count(opener))
    col = lines[line].rfind(opener)
    expected = f"{model}:{line + 1}:{col + 1}: nesting is deeper than {MAX_NESTING} levels\n"
    codes = _run_all(model, tmp_path)
    assert codes == {"check": 2, "compile": 2, "dump-ir": 2}
    assert capsys.readouterr().err == expected * 3


@pytest.mark.parametrize(
    "text",
    [
        _in_body("x = " + "!" * 5000 + "x"),
        _in_body("x = " + "(" * 3000 + "x" + ")" * 3000),
        _in_body("if x { " * 2000 + "x = true" + " }" * 2000),
        "init { c: channel { " + "channel { " * 5000 + "bool" + " }" * 5001 + " }\n",
    ],
    ids=["5000-not", "3000-parens", "2000-ifs", "5000-channel-types"],
)
def test_deep_nesting_is_a_usage_error_not_a_crash(text, tmp_path, capsys):
    model = tmp_path / "deep.sandal"
    model.write_text(text)
    code = run(["check", str(model)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"{model}:")
    assert f"nesting is deeper than {MAX_NESTING} levels" in captured.err
    assert len(captured.err.splitlines()) == 1


# ---------------------------------------------------------------------------
# Expression depth: left-associative chains open no nesting level, so the
# tree of a whole expression is bounded on its own.  Each case maps a depth to
# the model source and the text just before the expression on its line.

MAX_EXPR_DEPTH = 256


def _chain(n, op, atom="x"):
    return f" {op} ".join([atom] * n)


DEPTH = {
    "and": lambda d: (_in_body("x = " + _chain(d, "&&")), "x = "),
    "or": lambda d: (_in_body("x = " + _chain(d, "||")), "x = "),
    "parens": lambda d: (_in_body("x = x || (" + _chain(d - 1, "&&") + ")"), "x = "),
    "in_ifs": lambda d: (
        _in_body("if x { " * 63 + "x = " + _chain(d, "&&") + " }" * 63), "x = "
    ),
    "ltl": lambda d: (
        "proc P() { var x bool }\ninit { p: P() }\n"
        "ltl { G (true || " + _chain(d - 2, "||", "p.x") + ") }\n",
        "ltl { ",
    ),
}


@pytest.mark.parametrize("case", sorted(DEPTH))
def test_expression_depth_at_the_bound_is_accepted(case, tmp_path, capsys):
    source, _ = DEPTH[case](MAX_EXPR_DEPTH)
    model = tmp_path / "deep.sandal"
    model.write_text(source)
    codes = _run_all(model, tmp_path)
    assert codes == {"check": 0, "compile": 0, "dump-ir": 0}
    assert capsys.readouterr().err == ""


def _expression_error(model, source, prefix):
    lines = source.splitlines()
    line = next(i for i, text in enumerate(lines) if prefix in text)
    col = lines[line].index(prefix) + len(prefix)
    message = f"expression is deeper than {MAX_EXPR_DEPTH} levels"
    return f"{model}:{line + 1}:{col + 1}: {message}\n"


@pytest.mark.parametrize("case", sorted(DEPTH))
def test_expression_depth_past_the_bound_is_a_parse_error(case, tmp_path, capsys):
    source, prefix = DEPTH[case](MAX_EXPR_DEPTH + 1)
    model = tmp_path / "deep.sandal"
    model.write_text(source)
    codes = _run_all(model, tmp_path)
    assert codes == {"check": 2, "compile": 2, "dump-ir": 2}
    assert capsys.readouterr().err == _expression_error(model, source, prefix) * 3


def test_thousand_operand_chain_is_a_usage_error_not_a_crash(tmp_path, capsys):
    source = _in_body("x = " + _chain(1000, "&&"))
    model = tmp_path / "long.sandal"
    model.write_text(source)
    codes = _run_all(model, tmp_path)
    assert codes == {"check": 2, "compile": 2, "dump-ir": 2}
    assert capsys.readouterr().err == _expression_error(model, source, "x = ") * 3


# ---------------------------------------------------------------------------
# A reader that closes stdout early (`sandalc ... | head`) ends the run
# quietly with 128 + SIGPIPE.


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["check", "dump-ir"])
def test_closed_stdout_exits_quietly(command, capsys, monkeypatch):
    model = Path(__file__).parent / "golden" / "conditions.sandal"
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = run([command, str(model)])
    assert code == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_larger_than_its_buffer(tmp_path, unbuffered):
    """The reader closes after a few bytes of a megabyte of dump-ir text,
    with stdout buffered and with PYTHONUNBUFFERED=1."""
    # One process, so its whole dump is one print: unbuffered, the first
    # write is the one that comes up short.
    body = "\n".join(["  x = !x"] * 20_000)
    model = tmp_path / "long.sandal"
    model.write_text(f"proc P() {{ var x bool\n{body}\n}}\ninit {{ p: P() }}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sandalc.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "sandalc.cli", "dump-ir", str(model)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(16) == b"process p: 20002"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["check", "dump-ir"])
def test_stdout_without_space_is_a_usage_error(paths, command, unbuffered):
    """A stdout that refuses writes with ENOSPC gives one line and exit 2,
    not an internal error followed by a failed flush at exit."""
    env = dict(_SRC_ENV)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "sandalc", command, paths["2pc_drop"]],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr == "sandalc: cannot write output: No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "source, options, code",
    [
        (b"init { x }\n", [], 2),
        (b"\xff\xfe init {}\n", [], 2),
        (corpus_source("2pc_drop").encode(), ["--max-states", "5"], 3),
    ],
    ids=["parse_error", "not_utf8", "state_bound"],
)
def test_stderr_without_space_keeps_the_exit_code(tmp_path, source, options, code):
    """A diagnostic that cannot be written is lost, but the exit code is still
    its own, not the 1 of a failing property from an error in the handler."""
    model = tmp_path / "model.sandal"
    model.write_bytes(source)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "sandalc", "check", *options, str(model)],
            stdout=subprocess.PIPE, stderr=full, text=True, env=_SRC_ENV, timeout=120,
        )
    assert proc.returncode == code


def test_property_selector(paths, capsys):
    assert run(["check", paths["2pc_nofault"], "--property", "1"]) == 0
    assert run(["check", paths["2pc_nofault"], "--property", "2"]) == 2


@pytest.mark.parametrize("index", ["0", "1", "-1"])
def test_property_selector_on_a_model_without_ltl_is_out_of_range(paths, index, capsys):
    """The corpus pingpong has no ltl block, so every index is out of range."""
    assert run(["check", paths["pingpong"], "--property", index]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"--property {index} out of range (model has 0 ltl blocks)\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["check", "compile"])
def test_fairness_flag_is_a_usage_error(paths, command, tmp_path, capsys):
    argv = [command, paths["2pc_nofault"], "--fairness", "off"]
    if command == "compile":
        argv += ["-o", str(tmp_path / "out.smv")]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --fairness off" in capsys.readouterr().err


def test_unsupported_formula_is_an_error(tmp_path, capsys):
    model = tmp_path / "unsupported.sandal"
    model.write_text(
        "proc P() { var x bool }\n"
        "init { p: P() }\n"
        "ltl { G (F (G (p.x))) }\n"
    )
    code = run(["check", str(model)])
    assert code == 2
    assert "fragment" in capsys.readouterr().err


def test_check_reports_each_property(tmp_path, capsys):
    model = tmp_path / "two_specs.sandal"
    model.write_text(
        "proc P() { var x bool\n  x = true }\n"
        "init { p: P() }\n"
        "ltl { F (p.x) }\n"
        "ltl { G (p.x) }\n"
    )
    code = run(["check", str(model)])
    out = capsys.readouterr().out
    assert code == 1  # second property fails at the initial state
    assert "property 1:" in out and "property 2:" in out
    assert "PASS" in out and "FAIL" in out


def test_console_script_smoke(paths):
    """Runs the installed entry point, or `python -m sandalc` from the source tree."""
    command = ["sandalc"] if shutil.which("sandalc") else [sys.executable, "-m", "sandalc"]
    proc = subprocess.run(
        [*command, "check", paths["2pc_nofault"]], capture_output=True, text=True, env=_SRC_ENV
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Record classes are built without `dataclasses`, and so without the
    `inspect` it imports; a fresh interpreter importing the CLI loads neither."""
    probe = "import sys, sandalc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_SRC_ENV, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
