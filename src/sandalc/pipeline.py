"""End-to-end composition of the compiler stages."""

from __future__ import annotations

from .checker import CompiledSystem
from .faultweave import WeaveReport, weave_system
from .ir import lower_system
from .parser import parse_source
from .record import record
from .sema import CheckedModel, instantiate, resolve_and_check


@record
class BuildResult:
    system: CheckedModel
    unwoven: CompiledSystem
    woven: CompiledSystem
    report: WeaveReport


def build_model(source: str) -> BuildResult:
    """Parse, check, instantiate, lower and weave a model source text."""
    tree = parse_source(source)
    checked = resolve_and_check(tree)
    system = instantiate(checked)
    unwoven = lower_system(system)
    woven, report = weave_system(unwoven)
    return BuildResult(system=system, unwoven=unwoven, woven=woven, report=report)
