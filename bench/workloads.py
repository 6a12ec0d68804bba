"""The benchmark's workloads: job lists and the closed loop that runs one job.

Every workload is a fixed list of jobs; the seed only sets the order in
which a pass runs them, so two seeds do the same work.  A job is what a user
of sandalc waits for: a `check` job builds one model and checks its last
spec (replaying and rendering the counterexample on FAIL, as `sandalc check`
does); a `compile` job builds one model and renders its SMV text, as
`sandalc compile` does.  sandalc is called through module attributes, so the
traced run's hooks see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

import sandalc.checker as checker
import sandalc.pipeline as pipeline
import sandalc.smv as smv
from sandalc.corpus import corpus_source

from models import FAULT_MIXES, PINGPONG_SPECS, SPEC_KINDS, expected_pass, job_source
from models import spec_text, with_spec

# Each sweep model has at most this many reachable states: it keeps a pass of
# the liveness sweep near 5 s on one core.  Reachable states for N = 1, 2, ...
#   nofault 47, 233, 909, 3281, 11373      timeout 65, 467, 2835, 16787
#   drop 64, 486, 3022, 17866              shutdown 155, 1456, 10820, 75476
#   allfaults 296, 6680, 131801
STATE_BUDGET = 11_000
SWEEP_MAX_N = {"nofault": 4, "timeout": 3, "drop": 3, "shutdown": 3, "allfaults": 2}

# A check that passes this bound raises StateLimitExceeded, which counts as a
# failure; it is far above STATE_BUDGET so only a broken search reaches it.
MAX_STATES = 20 * STATE_BUDGET

COMPILE_WIDTHS = (16, 24, 32, 40, 48, 56, 64)

@dataclass(frozen=True)
class Job:
    name: str
    source: str
    expect_pass: bool | None  # None for compile jobs
    workers: int = 0  # compile jobs: width of the model


@dataclass
class JobResult:
    seconds: float  # time to the job's result
    ok: bool
    error: str = ""
    check_s: float = 0.0
    states: int = 0
    smv_bytes: int = 0


def _sweep(kinds: tuple[str, ...]) -> list[Job]:
    return [
        Job(f"2pc-n{n}-{mix}/{kind}", job_source(n, mix, kind), expected_pass(kind, mix))
        for mix in FAULT_MIXES
        for n in range(1, SWEEP_MAX_N[mix] + 1)
        for kind in kinds
    ]


def _small_models() -> list[Job]:
    jobs = [
        Job(f"pingpong/{ltl}", with_spec(corpus_source("pingpong"), ltl), holds)
        for ltl, holds in PINGPONG_SPECS
    ]
    for mix in FAULT_MIXES:
        source = corpus_source(f"2pc_{mix}")
        for kind in SPEC_KINDS:
            text = source if kind == "stable" else with_spec(source, spec_text(kind, 2))
            jobs.append(Job(f"2pc_{mix}/{kind}", text, expected_pass(kind, mix)))
    # The n=2 family members are the corpus models above.
    jobs += [
        Job(f"2pc-n1-{mix}/{kind}", job_source(1, mix, kind), expected_pass(kind, mix))
        for mix in FAULT_MIXES
        for kind in SPEC_KINDS
    ]
    return jobs


def make_jobs(workload: str) -> list[Job]:
    """The workload's job list, in a fixed canonical order."""
    if workload == "safety-sweep":
        return _sweep(("safety",))
    if workload == "liveness-sweep":
        return _sweep(("reach", "stable", "decided"))
    if workload == "small-models":
        return _small_models()
    if workload == "compile-wide":
        return [
            Job(f"2pc-n{n}-allfaults/compile", job_source(n, "allfaults", "stable"), None, n)
            for n in COMPILE_WIDTHS
        ]
    raise ValueError(f"unknown workload {workload}")


# The speed of this kind of shared host drifts by up to 2x within seconds, and
# the drift moves raw job times far more than any bound worth setting.  A small
# reference task, timed between jobs, drifts with it.  A job's normalized time
# is its wall time scaled by REFERENCE_S / (the mean duration of the reference
# runs just before and just after it): the seconds the job would take on a
# machine that runs the reference task in exactly REFERENCE_S.
REFERENCE_S = 0.001


@dataclass(frozen=True)
class _Cell:
    loc: int
    vars: tuple


def reference_task() -> int:
    """Frozen-dataclass construction, nested hashing and dict inserts: the
    same kinds of work as the state search, with no sandalc code."""
    seen = {}
    for i in range(1000):
        key = (_Cell(i & 63, (i & 1 == 0, "x", i >> 6)), ("ready", i & 3))
        if key not in seen:
            seen[key] = i
    return len(seen)


def reference_s() -> float:
    start = perf_counter()
    reference_task()
    return perf_counter() - start


def run_with_reference(jobs: list[Job], references: list[float]) -> list[tuple[Job, JobResult]]:
    """Run jobs in order, timing the reference task after each one.

    `references` must already hold the reference time taken before the
    first job; job i, counted across calls, sits between references[i] and
    references[i + 1].
    """
    out = []
    for job in jobs:
        out.append((job, run_job(job)))
        references.append(reference_s())
    return out


def speed_scales(references: list[float]) -> list[float]:
    """Normalizing factor of each job that `run_with_reference` ran."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(references, references[1:])]


def pass_order(jobs: list[Job], rng: random.Random) -> list[Job]:
    order = list(jobs)
    rng.shuffle(order)
    return order


def run_job(job: Job, recheck=None) -> JobResult:
    """Run one job and check its output; never raises.

    `recheck` wraps the untimed second SMV emission (the traced run passes
    one that suspends its hooks).
    """
    try:
        if job.expect_pass is None:
            return _compile(job, recheck)
        return _check(job)
    except Exception as exc:  # any exception is a failed operation
        return JobResult(0.0, False, f"{type(exc).__name__}: {exc}")


def _check(job: Job) -> JobResult:
    t0 = perf_counter()
    built = pipeline.build_model(job.source)
    t1 = perf_counter()
    verdict = checker.check_spec(
        built.woven, built.system.ltl_specs[-1], max_states=MAX_STATES
    )
    t2 = perf_counter()
    if not verdict.passed:
        checker.replay(built.woven, verdict.counterexample)
        text = checker.format_trace(built.woven, verdict.counterexample)
    t3 = perf_counter()
    result = JobResult(t3 - t0, True, check_s=t2 - t1)
    result.states = verdict.states_explored
    if verdict.passed != job.expect_pass:
        result.ok = False
        result.error = f"verdict {verdict.result.value}, expected the opposite"
    elif not verdict.passed and not text.startswith("counterexample:"):
        result.ok = False
        result.error = "counterexample text is malformed"
    return result


def _compile(job: Job, recheck) -> JobResult:
    start = perf_counter()
    built = pipeline.build_model(job.source)
    text = smv.emit_smv(built.system, built.woven.automata).render()
    result = JobResult(perf_counter() - start, True, smv_bytes=len(text.encode()))

    def emit_again() -> str:
        return smv.emit_smv(built.system, built.woven.automata).render()

    again = recheck(emit_again) if recheck else emit_again()
    lines = text.splitlines()
    modules = sum(line.startswith("MODULE ") for line in lines)
    specs = sum(line.strip().startswith("LTLSPEC ") for line in lines)
    if again != text:
        result.ok, result.error = False, "two emissions differ"
    # One module per channel (2 per worker), per process (workers + arbiter)
    # and main; the model has one ltl block.
    elif modules != 3 * job.workers + 2 or specs != 1:
        result.ok, result.error = False, f"{modules} modules and {specs} specs"
    return result
