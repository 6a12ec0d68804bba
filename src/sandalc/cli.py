"""Command-line driver.

Exit codes: 0 success / all properties hold; 1 a property fails (the
counterexample is printed); 2 usage, lexical, parse or type error, a source
that is not UTF-8, or an unwritable output file or stdout; 3 a resource limit
was hit (the state bound, or memory in any command); 4 internal error (a
one-line message on stderr); 141 stdout was closed early, e.g. by `| head`
(nothing is printed).  A diagnostic that stderr cannot take is lost, but
its exit code stands.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from .checker import (
    DEFAULT_MAX_STATES,
    StateLimitExceeded,
    UnsupportedFormula,
    check_spec,
    format_trace,
)
from .errors import SandalError
from .ir import dump_automaton
from .pipeline import BuildResult, build_model
from .smv import emit_smv

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4
_EXIT_CLOSED_PIPE = 128 + 13  # as if killed by SIGPIPE


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandalc",
        description="Compile and verify fault-aware message-passing models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify the model's ltl properties")
    check.add_argument("input", help="model source file (.sandal)")
    check.add_argument("--max-states", type=_positive_int, default=DEFAULT_MAX_STATES,
                       help="abort after exploring this many states")
    check.add_argument("--property", type=int, default=None, metavar="N",
                       help="check only the N-th ltl block (1-based)")
    check.add_argument("--report-weave", action="store_true",
                       help="print the fault weaving report")

    compile_ = sub.add_parser("compile", help="emit SMV modules")
    compile_.add_argument("input", help="model source file (.sandal)")
    compile_.add_argument("-o", "--output", required=True, help="output .smv file")

    dump = sub.add_parser("dump-ir", help="print the woven automata")
    dump.add_argument("input", help="model source file (.sandal)")
    dump.add_argument("--report-weave", action="store_true",
                      help="print the fault weaving report")
    return parser


def _to_devnull(stream) -> None:
    """Point a stream's file at devnull, so that what is left of it is
    discarded at exit instead of failing again (Python's SIGPIPE recipe).
    A stream without a file has none."""
    with contextlib.suppress(AttributeError, OSError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _warn(message: str) -> None:
    """Print a diagnostic on stderr.  One that cannot be written is lost,
    and the exit code alone tells what happened."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        _to_devnull(sys.stderr)


class _CliError(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


def _load(path: str) -> BuildResult:
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        _warn(f"{path}: {exc.strerror}")
        raise _CliError(EXIT_ERROR)
    except UnicodeDecodeError as exc:
        _warn(f"{path}: not UTF-8: {exc.reason} at byte offset {exc.start}")
        raise _CliError(EXIT_ERROR)
    try:
        return build_model(source)
    except SandalError as exc:
        _warn(exc.render(path))
        raise _CliError(EXIT_ERROR)


def _cmd_check(args) -> int:
    built = _load(args.input)
    if args.report_weave:
        print(built.report.render(), end="")
    specs = built.system.ltl_specs
    if args.property is not None:
        if not 1 <= args.property <= len(specs):
            _warn(f"--property {args.property} out of range (model has "
                  f"{len(specs)} ltl blocks)")
            return EXIT_ERROR
        selected = [(args.property, specs[args.property - 1])]
    elif not specs:
        print("no ltl properties to check")
        return EXIT_OK
    else:
        selected = list(enumerate(specs, start=1))
    exit_code = EXIT_OK
    for index, spec in selected:
        print(f"property {index}: {spec.text}")
        try:
            verdict = check_spec(built.woven, spec, max_states=args.max_states)
        except UnsupportedFormula as exc:
            _warn(f"{args.input}: property {index}: {exc}")
            return EXIT_ERROR
        except StateLimitExceeded as exc:
            _warn(f"{args.input}: {exc}")
            return EXIT_LIMIT
        except MemoryError as exc:
            # Leaving the handler frees the search's frames.
            verdict, states = None, getattr(exc, "states", None)
        if verdict is None:
            found = "" if states is None else f" after {states} states"
            _warn(f"{args.input}: out of memory{found} during the search; lower --max-states")
            return EXIT_LIMIT
        print(verdict.result.value)
        if verdict.counterexample is not None:
            print(format_trace(built.woven, verdict.counterexample), end="")
            exit_code = EXIT_FAIL
    return exit_code


def _cmd_compile(args) -> int:
    built = _load(args.input)
    text = emit_smv(built.system, built.woven.automata).render()
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        _warn(f"{args.output}: {exc.strerror}")
        return EXIT_ERROR
    return EXIT_OK


def _cmd_dump_ir(args) -> int:
    built = _load(args.input)
    if args.report_weave:
        print(built.report.render(), end="")
    for automaton in built.woven.automata:
        print(dump_automaton(automaton, built.system), end="")
    return EXIT_OK


_COMMANDS = {"check": _cmd_check, "compile": _cmd_compile, "dump-ir": _cmd_dump_ir}


def run(argv: list[str] | None = None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        try:
            return _COMMANDS[args.command](args)
        except _CliError as exc:
            return exc.code
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
    except OSError as exc:
        # The commands report their own files and _warn its own stderr
        # errors, so this is stdout's error.
        _to_devnull(sys.stdout)
        if isinstance(exc, BrokenPipeError):
            return _EXIT_CLOSED_PIPE
        _warn(f"sandalc: cannot write output: {exc.strerror}")
        return EXIT_ERROR
    except MemoryError:
        pass  # leaving the handler frees the frames that filled memory
    except Exception as exc:  # last resort: never show a traceback, never exit 1
        _warn(f"sandalc: internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    _warn(f"{args.input}: out of memory during {args.command}")
    return EXIT_LIMIT


def main() -> None:
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # Under `python -u` the text layer writes to the raw file and ignores
        # a short write, so a closed pipe would lose output without an error.
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(sys.stdout.buffer), encoding=sys.stdout.encoding,
            errors=sys.stdout.errors, line_buffering=True,
        )
    sys.exit(run())


if __name__ == "__main__":
    main()
