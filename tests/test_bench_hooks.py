"""The benchmark's tracer hooks name real sandalc functions, and one check
job plus one compile job call every one of them.

`bench/run.py --trace 1` looks each hook up by name and crashes before it
prints its result if one is missing; this test fails first instead.  A hook
that is never called leaves its metric null, which the traced run's last
line must not hold.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from sandalc.corpus import corpus_source  # noqa: E402


def test_every_tracer_hook_exists_and_is_called():
    for hook, module, name in tracing.Tracer.FUNCTIONS:
        assert callable(getattr(module, name, None)), hook
    jobs = [
        # A failing check: search, replay and trace rendering all run.
        workloads.Job("2pc_drop/stable", corpus_source("2pc_drop"), expect_pass=False),
        workloads.Job("2pc_allfaults/compile", corpus_source("2pc_allfaults"), None, 2),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = [workloads.run_job(job, tracer.recheck) for job in jobs]
    finally:
        tracer.uninstall()
    assert [(r.ok, r.error) for r in results] == [(True, "")] * 2
    hooks = [hook for hook, _, _ in tracing.Tracer.FUNCTIONS] + ["smv.render"]
    assert [hook for hook in hooks if not tracer.calls[hook]] == []


def _not_strict_json(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_traced_run_ends_in_a_result():
    """The traced safety sweep's last stdout line is its strict-JSON result,
    correct, with no failed job and a finite value for every per-layer metric
    that BENCHMARK.json declares."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "safety-sweep", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_not_strict_json)
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    values = {m["name"]: result["metrics"].get(m["name"], {}).get("value") for m in declared}
    assert {
        name: value for name, value in values.items()
        if type(value) not in (int, float) or not math.isfinite(value)
    } == {}
