"""The benchmark's tracer hooks name real sandalc functions, and one check
job plus one compile job call every one of them.

`bench/run.py --trace 1` looks each hook up by name and crashes before it
prints its result if one is missing; this test fails first instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

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
