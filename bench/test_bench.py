"""Tests of the benchmark's own parts.  Run with `python3 -m pytest bench`."""

import random

import pytest

import sandalc.checker as checker
from sandalc.checker import PBin, check_spec, extract_pattern
from sandalc.corpus import corpus_source
from sandalc.pipeline import build_model

from models import (
    FAULT_MIXES,
    PINGPONG_SPECS,
    SPEC_KINDS,
    expected_pass,
    family_member,
    job_source,
    two_phase_commit,
    with_spec,
)
from oracles import build_graph, naive_verdict
import tracing
import workloads


@pytest.mark.parametrize("mix", FAULT_MIXES)
def test_two_worker_member_is_the_corpus_model(mix):
    generated = build_model(family_member(2, mix))
    bundled = build_model(corpus_source(f"2pc_{mix}"))
    _, generated_graph = build_graph(generated.woven)
    _, bundled_graph = build_graph(bundled.woven)
    assert len(generated_graph) == len(bundled_graph)
    spec = generated.system.ltl_specs[0]
    assert (
        check_spec(generated.woven, spec).result
        == check_spec(bundled.woven, bundled.system.ltl_specs[0]).result
    )
    assert family_member(2, mix) == corpus_source(f"2pc_{mix}")


def test_allfaults_state_count():
    _, graph = build_graph(build_model(two_phase_commit(2, True, True, True)).woven)
    assert len(graph) == 6680


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("mix", FAULT_MIXES)
def test_expected_verdicts_agree_with_naive_oracle(n, mix):
    for kind in SPEC_KINDS:
        built = build_model(job_source(n, mix, kind))
        pattern, prop = extract_pattern(built.system.ltl_specs[-1].formula)
        assert naive_verdict(built.woven, pattern, prop) == expected_pass(kind, mix), kind


def test_pingpong_verdicts_agree_with_naive_oracle():
    for ltl, holds in PINGPONG_SPECS:
        built = build_model(with_spec(corpus_source("pingpong"), ltl))
        pattern, prop = extract_pattern(built.system.ltl_specs[-1].formula)
        assert naive_verdict(built.woven, pattern, prop) == holds, ltl


def test_small_models_and_compile_jobs_succeed():
    jobs = workloads.make_jobs("small-models") + workloads.make_jobs("compile-wide")[:2]
    failures = [(job.name, r.error) for job in jobs if not (r := workloads.run_job(job)).ok]
    assert failures == []


def test_wrong_expectation_is_a_failure():
    job = workloads.make_jobs("small-models")[0]
    flipped = workloads.Job(job.name, job.source, not job.expect_pass)
    assert not workloads.run_job(flipped).ok


def test_tracer_counts_top_level_calls_and_restores_functions():
    built = build_model(corpus_source("2pc_nofault"))
    _, prop = extract_pattern(built.system.ltl_specs[0].formula)
    assert isinstance(prop, PBin)  # so eval_prop recurses
    original = checker.eval_prop
    tracer = tracing.Tracer()
    tracer.install()
    try:
        checker.eval_prop(prop, checker.initial_state(built.woven))
    finally:
        tracer.uninstall()
    assert checker.eval_prop is original
    assert tracer.calls_of("checker.eval_prop") == 1
    # A hook whose function never ran reports null, not 0.
    assert tracer.calls_of("checker.replay") is None
    assert tracer.count_of("checker.replay", "checker.cex_steps") is None


def test_traced_counts_do_not_depend_on_order():
    jobs = workloads.make_jobs("small-models")
    seen = []
    for seed in (1, 2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for job in workloads.pass_order(jobs, random.Random(seed)):
                assert workloads.run_job(job, tracer.recheck).ok
        finally:
            tracer.uninstall()
        seen.append((dict(tracer.calls), dict(tracer.counts)))
    assert seen[0] == seen[1]


def test_search_profile_counts_the_checker_states():
    built = build_model(job_source(2, "allfaults", "safety"))
    verdict = check_spec(built.woven, built.system.ltl_specs[-1])
    profile = tracing.search_profile(built.woven)
    assert verdict.passed and profile["states"] == verdict.states_explored == 6680
    assert set(profile["fired"]) == set(tracing.FAULT_TAGS)


def test_percentile_is_harrell_davis():
    import run

    hd = pytest.importorskip("scipy.stats.mstats").hdquantiles
    samples = [random.Random(seed).expovariate(1.0) for seed in range(45)]
    for q in (50, 90):
        assert run.percentile(samples, q) == pytest.approx(float(hd(samples, prob=[q / 100])[0]))
    assert run.percentile([0.25], 90) == 0.25
