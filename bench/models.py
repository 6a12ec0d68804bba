"""Model sources for the benchmark: the N-worker two-phase-commit family,
the specs checked against it, and the verdict each spec must get.

`two_phase_commit(2, ...)` reproduces the bundled `2pc_*` corpus files byte
for byte, so the family's n=2 members are the corpus models.

The expected verdicts are derived by hand from the protocol, not from the
checker under test (bench/test_bench.py cross-checks them against the
naive full-graph oracle for n <= 2):

* The arbiter sends Commit only after `determined = true` with `all_ready`
  still true, and Abort only with it false; neither variable changes after
  that, and a shut-down process keeps its last values.  So every worker's
  `resp` agrees with the arbiter's decision in every fault mix: `safety`
  holds everywhere.
* `determined` is reached unless the arbiter can block for ever before it:
  a dropped Ready leaves a worker waiting while the arbiter waits for its
  reply, and a shut-down arbiter stops.  A timeout never blocks.  So `reach`
  (F) and the corpus spec `stable` (F G) hold exactly when there is no drop
  and no shutdown fault.
* Every worker hears the decision only if no exchange can fail: a timed-out
  reply leaves its worker stuck in the send, a dropped message leaves one
  side waiting, a shutdown stops one side.  So `decided` (G F) holds only
  with no fault at all.
"""

from __future__ import annotations

FAULT_MIXES = ("nofault", "timeout", "drop", "shutdown", "allfaults")

_MIX_FLAGS = {
    "nofault": dict(drop=False, shutdown=False, timeout=False),
    "timeout": dict(drop=False, shutdown=False, timeout=True),
    "drop": dict(drop=True, shutdown=False, timeout=False),
    "shutdown": dict(drop=False, shutdown=True, timeout=False),
    "allfaults": dict(drop=True, shutdown=True, timeout=True),
}

_HEADER = """\
data Response { Ready, NotReady, Commit, Abort }
proc Arbiter(chRecvs []channel { Response },
             chSends []channel { Response }) {
  var determined bool = false
  for ch in chSends {
    send(ch, Ready)
  }
  var all_ready bool = true
  for ch in chRecvs {
    var resp Response
    var recved bool = true
%(recv)s
    if !recved || (recved && resp != Ready) {
      all_ready = false
    }
  }
  determined = true
  if all_ready {
    for ch in chSends {
      send(ch, Commit)
    }
  } else {
    for ch in chSends {
      send(ch, Abort)
    }
  }
}
proc Worker(chRecv channel { Response }, chSend channel { Response }) {
  var resp Response
  recv(chRecv, resp)
  choice { send(chSend, NotReady) }, { send(chSend, Ready) }
  recv(chRecv, resp)
}
"""


def two_phase_commit(
    n: int, drop: bool = False, shutdown: bool = False, timeout: bool = False
) -> str:
    """Source of the n-worker 2PC model with the corpus's F (G ...) spec.

    `drop` marks every channel @drop, `shutdown` marks every process
    @shutdown, and `timeout` turns the arbiter's receive into timeout_recv.
    """
    if n < 1:
        raise ValueError("two_phase_commit needs at least one worker")
    recv = "    recved = timeout_recv(ch, resp)" if timeout else "    recv(ch, resp)"
    chan_mark = " @drop" if drop else ""
    proc_mark = " @shutdown" if shutdown else ""
    workers = range(1, n + 1)
    lines = [_HEADER % {"recv": recv}, "init {\n"]
    for i in workers:
        lines.append(f"  chWorker{i}Send : channel {{ Response }}{chan_mark},\n")
        lines.append(f"  chWorker{i}Recv : channel {{ Response }}{chan_mark},\n")
    sends = ", ".join(f"chWorker{i}Send" for i in workers)
    recvs = ", ".join(f"chWorker{i}Recv" for i in workers)
    lines.append(f"  arbiter : Arbiter([{sends}],\n")
    lines.append(f"                    [{recvs}]){proc_mark},\n")
    for i in workers:
        lines.append(
            f"  worker{i} : Worker(chWorker{i}Recv, chWorker{i}Send){proc_mark},\n"
        )
    no_commit = " && ".join(f"!(worker{i}.resp == Commit)" for i in workers)
    lines.append(
        "}\nltl {\n"
        "  F (G (arbiter.determined &&\n"
        "     ((!arbiter.all_ready) ->\n"
        f"        ({no_commit}))))\n"
        "}\n"
    )
    return "".join(lines)


def family_member(n: int, mix: str) -> str:
    return two_phase_commit(n, **_MIX_FLAGS[mix])


def spec_text(kind: str, n: int) -> str:
    """The benchmark's 2PC spec of one kind over workers 1..n, as LTL text."""
    workers = range(1, n + 1)
    if kind == "safety":
        return "G (" + " && ".join(
            f"((worker{i}.resp == Commit) -> (arbiter.determined && arbiter.all_ready))"
            f" && ((worker{i}.resp == Abort) -> (arbiter.determined && !arbiter.all_ready))"
            for i in workers
        ) + ")"
    if kind == "reach":
        return "F (arbiter.determined)"
    if kind == "decided":
        return "G (F (" + " && ".join(
            f"(worker{i}.resp == Commit || worker{i}.resp == Abort)" for i in workers
        ) + "))"
    raise ValueError(f"unknown spec kind {kind}")


SPEC_KINDS = ("safety", "reach", "stable", "decided")

# Fault mixes under which each spec kind holds (see the module docstring).
# The `stable` row is PAPER.md's verdict matrix for the 2PC corpus.
_HOLDS_UNDER = {
    "safety": set(FAULT_MIXES),
    "reach": {"nofault", "timeout"},
    "stable": {"nofault", "timeout"},
    "decided": {"nofault"},
}


def expected_pass(kind: str, mix: str) -> bool:
    return mix in _HOLDS_UNDER[kind]


def with_spec(source: str, ltl: str) -> str:
    """Append one ltl block; the job checks the model's last spec."""
    return source + "ltl { " + ltl + " }\n"


def job_source(n: int, mix: str, kind: str) -> str:
    """Model n/mix whose last spec is of the given kind."""
    source = family_member(n, mix)
    return source if kind == "stable" else with_spec(source, spec_text(kind, n))


# Specs for the pingpong corpus model: (ltl text, expected to hold).  P0 sends
# true and then receives true back; P1 receives it, so both end with v true.
PINGPONG_SPECS = (
    ("G (!P1.v)", False),
    ("F (P0.v)", True),
    ("G (F (P0.v && P1.v))", True),
    ("F (G (P0.v))", True),
)
