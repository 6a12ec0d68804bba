"""Independent oracles used to cross-check the compiler and checker.

Three references live here:

* HandshakeSim is a from-scratch simulator of the rendezvous handshake
  (ready flag, received flag, one-slot buffer, three-step exchange), of
  `timeout_recv` and of the two declared faults, written from README's
  fault text: a crash process may shut down at any point, a send on a
  lossy channel may be dropped, and a timeout receive may fail even when a
  sender stands ready.  It shares no code with the package's lowering,
  weaver or checker and is used to confirm the reachable state graph of
  small systems edge by edge.

* naive_verdict computes PASS/FAIL for G/F/FG/GF specs by building the full
  reachable graph and analyzing its cycles directly, instead of the
  checker's on-the-fly searches.  Loop unrolling makes process automata
  acyclic, so every product cycle must be a self-loop; the oracle verifies
  that claim (raising if it ever fails) and then reasons over self-loops.

* earliest_edge_order is the location numbering rule that lowering must
  produce, stated as a topological sort of the finished edge list.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from sandalc.checker import eval_prop, successors
from sandalc.ir import CompiledSystem
from sandalc.sema import Prop


# ---------------------------------------------------------------------------
# Independent rendezvous handshake simulator


@dataclass(frozen=True)
class SimChan:
    ready: bool = False
    received: bool = False
    buf: object = None


@dataclass(frozen=True)
class SimState:
    pcs: tuple[int, ...]
    vars: tuple[tuple[object, ...], ...]  # per process, by local index
    chans: tuple[SimChan, ...]


CRASHED = -1  # the pc of a process that has shut down


class HandshakeSim:
    """Executes per-process micro-op programs over shared rendezvous channels.

    Ops:
      ("var", local_index)            declare: set the local to False
      ("send_fire", chan, value)      needs !ready; sets ready and the buffer
      ("send_done", chan)             needs received; resets the channel
      ("recv", chan, local_index)     needs ready & !received; copies buffer
      ("timeout_recv", chan, local_index, result_index)
                                      two steps: timeout_ok is a recv that
                                      also sets the result local True;
                                      timeout_fail is always enabled and
                                      only sets the result local False

    Faults, as extra steps of kind:
      shutdown    a process in `crash` that has not crashed moves to one
                  absorbing crashed pc, from any pc (after its last op, and
                  between send_fire and send_done too); its locals and the
                  channels keep their values
      drop        at a send_fire on a channel in `lossy`, the sender moves
                  past the matching send_done, with no channel effect,
                  whatever the channel's flags are
    """

    def __init__(
        self,
        programs: list[list[tuple]],
        n_locals: list[int],
        n_chans: int,
        crash: frozenset[int] = frozenset(),
        lossy: frozenset[int] = frozenset(),
    ):
        self.programs = programs
        self.n_locals = n_locals
        self.n_chans = n_chans
        self.crash = crash
        self.lossy = lossy

    def initial(self) -> SimState:
        return SimState(
            pcs=tuple(0 for _ in self.programs),
            vars=tuple(tuple(False for _ in range(n)) for n in self.n_locals),
            chans=tuple(SimChan() for _ in range(self.n_chans)),
        )

    def steps(self, state: SimState) -> list[tuple[tuple[int, str], SimState]]:
        """Enabled steps as ((process, op kind), next state) pairs."""
        out = []
        for i, program in enumerate(self.programs):
            pc = state.pcs[i]
            if pc == CRASHED:
                continue
            if i in self.crash:
                out.append(((i, "shutdown"), self._jump(state, i, CRASHED)))
            if pc >= len(program):
                continue
            op = program[pc]
            kind = op[0]
            if kind == "send_fire" and op[1] in self.lossy:
                assert program[pc + 1] == ("send_done", op[1])
                out.append(((i, "drop"), self._jump(state, i, pc + 2)))
            chans = list(state.chans)
            vars_ = [list(v) for v in state.vars]
            if kind == "timeout_recv":
                vars_[i][op[3]] = False
                out.append(((i, "timeout_fail"), self._moved(state, i, vars_, chans)))
                chan = state.chans[op[1]]
                if not (chan.ready and not chan.received):
                    continue
                vars_[i][op[2]], vars_[i][op[3]] = chan.buf, True
                chans[op[1]] = SimChan(ready=True, received=True, buf=chan.buf)
                kind = "timeout_ok"
            elif kind == "var":
                vars_[i][op[1]] = False
            elif kind == "send_fire":
                chan = state.chans[op[1]]
                if chan.ready:
                    continue
                chans[op[1]] = SimChan(ready=True, received=False, buf=op[2])
            elif kind == "send_done":
                if not state.chans[op[1]].received:
                    continue
                chans[op[1]] = SimChan()
            elif kind == "recv":
                chan = state.chans[op[1]]
                if not (chan.ready and not chan.received):
                    continue
                vars_[i][op[2]] = chan.buf
                chans[op[1]] = SimChan(ready=True, received=True, buf=chan.buf)
            else:  # pragma: no cover
                raise ValueError(f"unknown op {op!r}")
            out.append(((i, kind), self._moved(state, i, vars_, chans)))
        return out

    @staticmethod
    def _moved(state: SimState, i: int, vars_: list[list], chans: list) -> SimState:
        """`state` with process i one op further on, over `vars_` and `chans`."""
        pcs = state.pcs[:i] + (state.pcs[i] + 1,) + state.pcs[i + 1 :]
        return SimState(pcs, tuple(tuple(v) for v in vars_), tuple(chans))

    @staticmethod
    def _jump(state: SimState, i: int, pc: int) -> SimState:
        """`state` with process i at `pc`, its locals and every channel kept."""
        return SimState(state.pcs[:i] + (pc,) + state.pcs[i + 1 :], state.vars, state.chans)


def enumerate_graph(initial, steps_fn, max_states=100_000):
    """BFS a labeled graph: returns {state: {edge_key: next_state}}."""
    graph = {}
    frontier = deque([initial])
    graph[initial] = None  # placeholder to mark visited
    while frontier:
        state = frontier.popleft()
        edges = {}
        for key, nxt in steps_fn(state):
            assert key not in edges, f"duplicate edge key {key} at {state}"
            edges[key] = nxt
            if nxt not in graph:
                graph[nxt] = None
                if len(graph) > max_states:
                    raise RuntimeError("state space too large for the oracle")
                frontier.append(nxt)
        graph[state] = edges
    return graph


def assert_isomorphic(graph_a, init_a, graph_b, init_b) -> None:
    """Check two labeled graphs are isomorphic via lockstep traversal."""
    a_to_b = {init_a: init_b}
    b_to_a = {init_b: init_a}
    frontier = deque([(init_a, init_b)])
    done = set()
    while frontier:
        sa, sb = frontier.popleft()
        if sa in done:
            continue
        done.add(sa)
        edges_a, edges_b = graph_a[sa], graph_b[sb]
        assert set(edges_a) == set(edges_b), (
            f"edge keys differ: {sorted(set(edges_a) ^ set(edges_b))}"
        )
        for key, na in edges_a.items():
            nb = edges_b[key]
            if na in a_to_b:
                assert a_to_b[na] == nb, f"mapping conflict on {key}"
            else:
                assert nb not in b_to_a, f"mapping not injective on {key}"
                a_to_b[na] = nb
                b_to_a[nb] = na
                frontier.append((na, nb))
    assert len(a_to_b) == len(graph_a) == len(graph_b)


# ---------------------------------------------------------------------------
# Location numbering rule


def earliest_edge_order(n_locations: int, edges) -> list[int]:
    """The number of each location under Kahn's algorithm with ties broken by
    earliest edge: of the locations whose every incoming edge comes from a
    numbered location, number next the one made ready by the earliest edge
    in the list.  `edges` are (src, dst) pairs in transition order; locations
    without incoming edges are ready from the start, in index order."""
    leaving: list[list[tuple[int, int]]] = [[] for _ in range(n_locations)]
    waiting = [0] * n_locations  # incoming edges from unnumbered locations
    for k, (src, dst) in enumerate(edges):
        leaving[src].append((k, dst))
        waiting[dst] += 1
    ready = [(-1, loc) for loc in range(n_locations) if not waiting[loc]]
    numbering = [-1] * n_locations
    for n in range(n_locations):
        assert ready, "the edges have a cycle"
        _, loc = heapq.heappop(ready)
        numbering[loc] = n
        for k, dst in leaving[loc]:
            waiting[dst] -= 1
            if not waiting[dst]:
                heapq.heappush(ready, (k, dst))
    return numbering


# ---------------------------------------------------------------------------
# Naive full-graph verdict oracle


def build_graph(cs: CompiledSystem, max_states=200_000):
    """Explicit reachable graph over the checker's successor relation."""
    from sandalc.checker import initial_state

    init = initial_state(cs)
    succ = {}
    frontier = deque([init])
    succ[init] = None
    while frontier:
        state = frontier.popleft()
        entries = tuple(successors(cs, state))
        succ[state] = entries
        for _, _, nxt in entries:
            if nxt not in succ:
                succ[nxt] = None
                if len(succ) > max_states:
                    raise RuntimeError("state space too large for the oracle")
                frontier.append(nxt)
    return init, succ


def assert_only_self_loop_cycles(succ) -> None:
    """Verify every cycle is a self-loop (iterative three-color DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {s: WHITE for s in succ}
    for root in succ:
        if color[root] != WHITE:
            continue
        stack = [(root, iter([n for _, _, n in succ[root] if n != root]))]
        color[root] = GRAY
        while stack:
            state, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    raise AssertionError("multi-state cycle found in product graph")
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter([n for _, _, n in succ[nxt] if n != nxt])))
                    advanced = True
                    break
            if not advanced:
                color[state] = BLACK
                stack.pop()


def _loop_states(succ, fairness: bool) -> set:
    """States with an admissible self-loop.

    A self-loop's only stepper is the looping edge's process (none for
    stutter), and under fairness every process enabled at the state must
    step on the loop.  Enabledness is read off the graph itself: a process
    is enabled exactly when it owns an outgoing edge.
    """
    out = set()
    for state, entries in succ.items():
        enabled = {i for i, _, _ in entries if i is not None}
        for i, _, nxt in entries:
            if nxt != state:
                continue
            steppers = set() if i is None else {i}
            if not fairness or enabled <= steppers:
                out.add(state)
                break
    return out


def naive_verdict(
    cs: CompiledSystem, pattern: str, prop: Prop, fairness: bool = True, graph=None
) -> bool:
    """True iff the spec holds, by explicit graph construction and cycle analysis."""
    init, succ = build_graph(cs) if graph is None else graph
    assert_only_self_loop_cycles(succ)
    p = {s: bool(eval_prop(prop, s)) for s in succ}
    if pattern == "G":
        return all(p.values())
    loops = _loop_states(succ, fairness)
    if pattern == "F":
        # Counterexample: a !p-only path from init to a !p self-loop.
        if p[init]:
            return True
        seen = {init}
        frontier = deque([init])
        while frontier:
            state = frontier.popleft()
            if state in loops:
                return False
            for _, _, nxt in succ[state]:
                if nxt not in seen and not p[nxt]:
                    seen.add(nxt)
                    frontier.append(nxt)
        return True
    if pattern in ("FG", "GF"):
        # With self-loop-only cycles both reduce to: a reachable !p state
        # with an admissible self-loop (the loop is that single state).
        return not any(not p[s] and s in loops for s in succ)
    raise ValueError(f"unknown pattern {pattern}")
