"""sandalc benchmark: time to verdict, search throughput and memory.

Usage (from the repository root):

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (bench/workloads.py): safety-sweep, liveness-sweep, small-models,
compile-wide.  Each is a closed loop with one client in one thread: the next
job starts when the previous one has its result.  Passes over the workload's
job list repeat, in a seeded order, until --seconds have elapsed (at least
one pass).  Every output is checked: a wrong verdict, a FAIL that does not
replay, two different SMV emissions of one model, StateLimitExceeded or any
exception counts as a failed operation.

Times are normalized seconds: each job's wall time is scaled by how fast a
fixed reference task ran just before and just after it (see REFERENCE_S in
bench/workloads.py), because the speed of a shared host drifts by up to 2x
within seconds.  The table also shows raw_wall_s, the unscaled pass time.
wall_s is the median pass; job_s_p50 and job_s_p90 are Harrell-Davis
percentiles over the workload's distinct jobs, each job taken at its median
over the passes (verdict_s_* or compile_s_* in the table).

--trace 0 reports the end-to-end metrics of the named workload.  --trace 1
runs every job of every workload once untraced and once traced, so its
per-layer metrics are totals over all four workloads (whatever --workload
names), and reports the tracing overhead as traced / untraced job time.
`--workload all` runs each workload in its own process and prints one row
per workload.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("safety-sweep", "liveness-sweep", "small-models", "compile-wide")

# setup_s is the median of this many fresh interpreters, each importing
# sandalc and generating the workload's model sources.
SETUP_REPEATS = 7

SETUP_CODE = """
import statistics, sys
from time import perf_counter
start = perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import sandalc
import workloads
workloads.make_jobs(sys.argv[3])
elapsed = perf_counter() - start
reference = statistics.median(workloads.reference_s() for _ in range(9))
print(elapsed * workloads.REFERENCE_S / reference)
"""


def fail_usage(message: str) -> None:
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def import_sandalc() -> None:
    if not (SRC / "sandalc" / "__init__.py").is_file():
        fail_usage(f"sandalc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import sandalc

    if Path(sandalc.__file__).resolve().parent != SRC / "sandalc":
        fail_usage(f"imported sandalc from {sandalc.__file__}, not from {SRC}")


def measure_setup(workload: str) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1 / clamp(1 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 500):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1 / clamp(1 + aa * d)
            c = clamp(1 + aa / c)
            h *= d * c
        if abs(d * c - 1) < 1e-13:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0 or x >= 1:
        return 0.0 if x <= 0 else 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1 - front * _beta_cf(b, a, 1 - x) / b


def percentile(samples: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    It weights every order statistic instead of interpolating between two,
    so a percentile over a few dozen distinct jobs does not jump when two
    jobs of similar time swap ranks from one run to the next.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def report_failures(results) -> None:
    for job, result in results:
        if not result.ok:
            print(f"FAILED {job.name}: {result.error}", file=sys.stderr)


# ---------------------------------------------------------------------------
# End-to-end run


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    setup = measure_setup(workload)
    jobs = workloads.make_jobs(workload)
    rng = random.Random(seed)
    order = workloads.pass_order(jobs, rng)
    reshuffle = workload == "small-models"  # its draw: a fresh order per pass
    ran = []
    references = [workloads.reference_s()]
    started = perf_counter()
    while True:
        ran += workloads.run_with_reference(order, references)
        if perf_counter() - started >= seconds:
            break
        if reshuffle:
            order = workloads.pass_order(jobs, rng)
    report_failures(ran)
    results = [(job, r, scale) for (job, r), scale in zip(ran, workloads.speed_scales(references))]
    # Closed loop, one client: a pass's wall time is the sum of its jobs'.
    pass_walls = [
        sum(r.seconds * scale for _, r, scale in results[k : k + len(jobs)])
        for k in range(0, len(results), len(jobs))
    ]
    good = [(r, scale) for _, r, scale in results if r.ok]
    # Each job's time is its median over the passes; the percentiles are over
    # the workload's distinct jobs.  Percentiles over all runs of all jobs
    # would jump between the gaps that separate one job's times from the next.
    by_job: dict[str, list[float]] = {}
    for job, r, scale in results:
        if r.ok:
            by_job.setdefault(job.name, []).append(r.seconds * scale)
    times = [statistics.median(t) for t in by_job.values()] or [0.0]
    p50, p90 = percentile(times, 50), percentile(times, 90)
    compile_workload = workload == "compile-wide"
    check_s = sum(r.check_s * scale for r, scale in good)
    failed = len(results) - len(good)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "passes": len(pass_walls),
        "setup": setup,
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(pass_walls), "s"),
            "job_s_p50": (p50, "s"),
            "job_s_p90": (p90, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "table": {
            "states_per_s": None if compile_workload else sum(r.states for r, _ in good) / check_s,
            "verdict_s_p50": None if compile_workload else p50,
            "verdict_s_p90": None if compile_workload else p90,
            "compile_s_p50": p50 if compile_workload else None,
            "compile_s_p90": p90 if compile_workload else None,
            "smv_bytes": sum(r.smv_bytes for _, r, _ in results[: len(jobs)]) if compile_workload else None,
            "fail_ratio": failed / len(results),
            "raw_wall_s": sum(r.seconds for _, r, _ in results) / len(pass_walls),
        },
        "samples": len(times),
        "runs": len(good),
    }


TABLE_COLUMNS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("states_per_s", "1/s"),
    ("verdict_s_p50", "s"),
    ("verdict_s_p90", "s"),
    ("compile_s_p50", "s"),
    ("compile_s_p90", "s"),
    ("peak_rss_mb", "MB"),
    ("smv_bytes", "bytes"),
    ("fail_ratio", "ratio"),
    ("raw_wall_s", "s"),
)


def print_table(rows: dict[str, dict]) -> None:
    """One row per workload; null where a metric does not apply."""
    header = ["workload", "jobs", "passes"] + [f"{n} [{u}]" for n, u in TABLE_COLUMNS]
    lines = [header]
    for workload, out in rows.items():
        values = {name: value for name, (value, _) in out["metrics"].items()}
        values.update(out["table"])
        cells = [workload, str(out["samples"]), str(out["passes"])]
        for name, _ in TABLE_COLUMNS:
            value = values[name]
            cells.append("null" if value is None else f"{value:.6g}")
        lines.append(cells)
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    for workload, out in rows.items():
        n = out["samples"]
        beyond = n - int(0.9 * n)
        note = "" if beyond >= 10 else f", only {beyond} beyond p90: indicative"
        print(
            f"{workload}: percentiles over {n} jobs ({out['runs']} runs{note}); "
            f"setup_s is the median of {len(out['setup'])} fresh imports; "
            f"wall_s the median of {out['passes']} passes"
        )


# ---------------------------------------------------------------------------
# Traced run


def traced_suite(seed: int) -> dict:
    import sandalc.checker as checker
    import sandalc.pipeline as pipeline
    import tracing
    import workloads

    rng = random.Random(seed)
    tracer = tracing.Tracer()
    layer_s: Counter = Counter()  # normalized seconds per hook
    results = []
    walls = {}
    layer_rows = {}
    safety_results = []
    references = [workloads.reference_s()]

    def scale() -> float:
        references.append(workloads.reference_s())
        return workloads.speed_scales(references[-2:])[0]

    for workload in WORKLOAD_NAMES:
        before_workload = Counter(layer_s)
        untraced_s = traced_s = 0.0
        # Each job runs untraced, then traced, so both see the same conditions.
        for job in workloads.pass_order(workloads.make_jobs(workload), rng):
            plain = workloads.run_job(job)
            before_job = Counter(tracer.seconds)
            tracer.install()
            try:
                hooked = workloads.run_job(job, tracer.recheck)
            finally:
                tracer.uninstall()
            k = scale()
            for hook, seconds in tracer.seconds.items():
                layer_s[hook] += (seconds - before_job[hook]) * k
            untraced_s += plain.seconds * k
            traced_s += hooked.seconds * k
            results += [(job, plain), (job, hooked)]
            if workload == "safety-sweep":
                safety_results.append((job, hooked))
        walls[workload] = (untraced_s, traced_s)
        layer_rows[workload] = layer_s - before_workload

    # The benchmark's own BFS over each safety job: fired transitions per
    # tag, new-state ratio and dedup time; its state count must equal the
    # checker's on these G-PASS jobs.
    fired = {tag: 0 for tag in tracing.FAULT_TAGS}
    generated = new_states = 0
    dedup_s = 0.0
    largest = None
    for job, result in safety_results:
        try:
            built = pipeline.build_model(job.source)
            profile = tracing.search_profile(built.woven)
        except Exception as exc:  # a failed operation, like any in run_job
            result.ok, result.error = False, f"search profile: {type(exc).__name__}: {exc}"
            continue
        dedup_s += profile["dedup_s"] * scale()
        if profile["states"] != result.states:
            result.ok = False
            result.error = f"BFS found {profile['states']} states, checker {result.states}"
        for tag, n in profile["fired"].items():
            fired[tag] += n
        generated += profile["generated"]
        new_states += profile["states"] - 1
        if largest is None or result.states > largest[1].states:
            largest = (built, result)

    # Peak traced memory of the largest safety check, outside the timed passes.
    peak_traced_mb = None
    if largest is not None:
        built = largest[0]
        tracemalloc.start()
        try:
            checker.check_spec(
                built.woven, built.system.ltl_specs[-1], max_states=workloads.MAX_STATES
            )
            peak_traced_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    report_failures(results)
    t = tracer

    def time_of(hook: str) -> float | None:
        return layer_s[hook] if t.calls[hook] else None

    tokenize_s = time_of("lexer.tokenize")
    states = t.count_of("checker.check_spec", "checker.states")
    successors_calls = t.calls_of("checker.successors")
    untraced_total = sum(u for u, _ in walls.values())
    traced_total = sum(v for _, v in walls.values())
    metrics = {
        "lexer.tokenize_s": (tokenize_s, "s"),
        "lexer.tokens_per_s": (
            tracing.ratio(t.count_of("lexer.tokenize", "lexer.tokens"), tokenize_s), "1/s"),
        "parser.parse_s": (time_of("parser.parse"), "s"),
        "sema.check_s": (time_of("sema.check"), "s"),
        "sema.instantiate_s": (time_of("sema.instantiate"), "s"),
        "ir.lower_s": (time_of("ir.lower"), "s"),
        "ir.transitions": (t.count_of("ir.lower", "ir.transitions"), "count"),
        "faultweave.weave_s": (time_of("faultweave.weave"), "s"),
        **{
            f"faultweave.edges.{tag}": (
                t.count_of("faultweave.weave", f"faultweave.edges.{tag}"), "count")
            for tag in ("drop", "shutdown", "timeout")
        },
        "smv.emit_s": (time_of("smv.emit"), "s"),
        "smv.render_s": (time_of("smv.render"), "s"),
        "smv.bytes": (t.count_of("smv.render", "smv.bytes"), "bytes"),
        "checker.check_spec_s": (time_of("checker.check_spec"), "s"),
        "checker.states": (states, "count"),
        "checker.successors_calls": (successors_calls, "count"),
        "checker.successors_s": (time_of("checker.successors"), "s"),
        "checker.succ_calls_per_state": (tracing.ratio(successors_calls, states), "ratio"),
        "checker.eval_prop_calls": (t.calls_of("checker.eval_prop"), "count"),
        "checker.eval_prop_s": (time_of("checker.eval_prop"), "s"),
        "checker.dedup_s": (dedup_s, "s"),
        "checker.new_state_ratio": (tracing.ratio(new_states, generated), "ratio"),
        **{f"checker.fired.{tag}": (fired[tag], "count") for tag in tracing.FAULT_TAGS},
        "checker.peak_traced_mb": (peak_traced_mb, "MB"),
        "checker.replay_s": (time_of("checker.replay"), "s"),
        "checker.format_trace_s": (time_of("checker.format_trace"), "s"),
        "checker.cex_steps": (t.count_of("checker.replay", "checker.cex_steps"), "count"),
        "pipeline.build_model_s": (time_of("pipeline.build_model"), "s"),
        "trace.overhead": (traced_total / untraced_total, "ratio"),
    }
    failed = sum(not r.ok for _, r in results)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
        "walls": walls,
        "layer_rows": layer_rows,
    }


def print_layers(out: dict) -> None:
    print("per workload: summed job time untraced -> traced, then each layer's "
          "inclusive seconds and share of the traced time")
    for workload, (untraced, traced) in out["walls"].items():
        print(f"{workload}: {untraced:.3f}s -> {traced:.3f}s "
              f"(+{100 * (traced / untraced - 1):.1f}%)")
        for hook, seconds in sorted(out["layer_rows"][workload].items()):
            if seconds:
                print(f"    {hook:24s} {seconds:10.4f}s {100 * seconds / traced:6.2f}%")
    for name, (value, unit) in out["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:30s} {shown:>14s} {unit}")


# ---------------------------------------------------------------------------


def emit_result(out: dict) -> None:
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()
    }
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    rows = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--rows"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 2
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print_table(rows)
    emit_result({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {
            f"{workload}/{name}": (value, unit)
            for workload, row in rows.items()
            for name, (value, unit) in row["metrics"].items()
        },
    })
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        fail_usage("--seconds must be at least 1")
    import_sandalc()
    if args.trace:
        out = traced_suite(args.seed)
        print_layers(out)
    elif args.workload == "all":
        return run_all(args)
    else:
        out = run_workload(args.workload, args.seed, args.seconds)
        if args.rows:  # one row for run_all, which prints the table
            print(json.dumps(out))
            return 0 if out["correct"] else 1
        print_table({args.workload: out})
    emit_result(out)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
