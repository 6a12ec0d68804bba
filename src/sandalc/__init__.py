"""sandalc: a compiler and verifier for fault-aware message-passing models.

Models declare processes communicating over rendezvous or buffered channels;
fault markers on init-block entries (@shutdown on processes, @drop on
channels) make the compiler weave crash and message-loss behavior into the
lowered automata, so a model checker explores every fault scenario without
the faults being written out by hand.  Properties in the G/F/FG/GF fragment
are verified by the built-in explicit-state checker; full models can also be
emitted as SMV modules for an external symbolic checker.
"""

from .checker import check_spec, eval_prop, successors
from .faultweave import weave_system
from .ir import lower_process, lower_system
from .parser import parse_model, parse_source
from .pipeline import BuildResult, build_model
from .sema import instantiate, resolve_and_check
from .smv import emit_smv

__all__ = [
    "BuildResult",
    "build_model",
    "check_spec",
    "emit_smv",
    "eval_prop",
    "instantiate",
    "lower_process",
    "lower_system",
    "parse_model",
    "parse_source",
    "resolve_and_check",
    "successors",
    "weave_system",
]

__version__ = "0.1.0"
