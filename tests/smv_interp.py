"""An explicit-state interpreter for the SMV subset that sandalc emits.

It reads SMV *text* and nothing else: no part of sandalc is imported, so it
checks the emitted modules independently of the code that wrote them.

The subset: `MODULE` without parameters; `VAR` of `boolean`, `{a, b}`,
`lo..hi` and module instances; `INIT`, `DEFINE`, `TRANS` (several are
conjoined) and `LTLSPEC`; expressions over `! & | -> = != < >
+ -`, `case ... esac`, `in` with a set literal, `next()`, and the temporal
operators `G` and `F` in an `LTLSPEC`.  Precedence
follows the NuSMV 2 manual.  Each expression is type-checked (boolean,
integer or symbolic) and compiled once to a Python lambda.

A state is a tuple with one value per variable, in declaration order, with
instance variables flattened as `inst.var`.  The successors of a state are
every valuation of the next-state variables that satisfies all TRANS
constraints: `next(x) = e` fixes x, a disjunction branches, and a variable
no constraint fixes ranges over its whole domain.  Assigning a value outside
a variable's domain is an error, as in NuSMV.

`SmvModel.holds` decides an LTLSPEC of the form G, F, F G or G F of a
propositional core on the reachable graph, through its strongly connected
components.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from functools import cached_property
from operator import itemgetter

_TOKEN = re.compile(
    r"\s+|--[^\n]*|(\.\.|:=|->|!=|[A-Za-z_][A-Za-z0-9_]*|\d+|[(){};:,.!&|=<>+\-])"
)
_SECTIONS = {"MODULE", "VAR", "INIT", "DEFINE", "TRANS", "LTLSPEC"}
_TEMPORAL = {"G", "F"}
_COMPARE = {"=": "==", "!=": "!=", "<": "<", ">": ">"}
_MAX_FREE = 100_000  # valuations tried for variables no constraint fixes


class SmvError(Exception):
    """Text outside the subset, a type error or an out-of-domain value."""


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SmvError(f"unexpected character {text[pos]!r} at offset {pos}")
        if m.group(1):
            out.append(m.group(1))
        pos = m.end()
    out.append("<eof>")
    return out


# ---------------------------------------------------------------------------
# Parsing: tuples ("id", name), ("num", n), ("bool", b), ("next", e),
# ("not", e), ("temporal", op, e), ("and" | "or", [e, ...]),
# ("bin", op, l, r), ("set", [e, ...]) and ("case", [(cond, value), ...]).


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i]

    def take(self, expected: str | None = None) -> str:
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise SmvError(f"expected {expected!r}, got {tok!r} (token {self.i})")
        self.i += 1
        return tok

    def ident(self) -> str:
        tok = self.take()
        if not re.fullmatch(r"[A-Za-z_]\w*", tok) or tok in _SECTIONS:
            raise SmvError(f"expected an identifier, got {tok!r}")
        return tok

    def modules(self) -> dict[str, dict]:
        modules = {}
        while self.peek() != "<eof>":
            self.take("MODULE")
            name = self.ident()
            mod = {"vars": [], "defines": {}, "INIT": [], "TRANS": [], "LTLSPEC": []}
            while self.peek() not in ("MODULE", "<eof>"):
                section = self.take()
                if section == "VAR":
                    while self.toks[self.i + 1] == ":":
                        var = self.ident()
                        self.take(":")
                        mod["vars"].append((var, self.var_type()))
                        self.take(";")
                elif section == "DEFINE":
                    while self.toks[self.i + 1] == ":=":
                        define = self.ident()
                        self.take(":=")
                        mod["defines"][define] = self.expr()
                        self.take(";")
                elif section in ("INIT", "TRANS", "LTLSPEC"):
                    mod[section].append(self.expr())
                    self.take(";")
                else:
                    raise SmvError(f"unsupported section {section!r}")
            modules[name] = mod
        return modules

    def var_type(self):
        if self.peek() == "boolean":
            self.take()
            return ("enum", (False, True))
        if self.peek() == "{":
            self.take()
            values = [self.ident()]
            while self.peek() == ",":
                self.take()
                values.append(self.ident())
            self.take("}")
            return ("enum", tuple(values))
        if self.peek().isdigit():
            lo = int(self.take())
            self.take("..")
            return ("enum", tuple(range(lo, int(self.take()) + 1)))
        return ("module", self.ident())

    # Precedence, loosest first: -> (right), |, &, comparisons, in, + -,
    # then the unary ! and temporal operators.
    def expr(self):
        left = self.disj()
        if self.peek() == "->":
            self.take()
            return ("bin", "->", left, self.expr())
        return left

    def disj(self):
        items = [self.conj()]
        while self.peek() == "|":
            self.take()
            items.append(self.conj())
        return items[0] if len(items) == 1 else ("or", items)

    def conj(self):
        items = [self.compare()]
        while self.peek() == "&":
            self.take()
            items.append(self.compare())
        return items[0] if len(items) == 1 else ("and", items)

    def compare(self):
        left = self.member()
        while self.peek() in _COMPARE:
            left = ("bin", self.take(), left, self.member())
        return left

    def member(self):
        left = self.additive()
        while self.peek() == "in":
            self.take()
            left = ("bin", "in", left, self.additive())
        return left

    def additive(self):
        left = self.unary()
        while self.peek() in ("+", "-"):
            left = ("bin", self.take(), left, self.unary())
        return left

    def unary(self):
        if self.peek() == "!":
            self.take()
            return ("not", self.unary())
        if self.peek() in _TEMPORAL:
            return ("temporal", self.take(), self.unary())
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if tok == "{":
            self.take()
            items = [self.expr()]
            while self.peek() == ",":
                self.take()
                items.append(self.expr())
            self.take("}")
            return ("set", items)
        if tok == "case":
            self.take()
            arms = []
            while self.peek() != "esac":
                cond = self.expr()
                self.take(":")
                arms.append((cond, self.expr()))
                self.take(";")
            self.take("esac")
            return ("case", arms)
        if tok == "next":
            self.take()
            self.take("(")
            e = self.expr()
            self.take(")")
            return ("next", e)
        if tok in ("TRUE", "FALSE"):
            self.take()
            return ("bool", tok == "TRUE")
        if tok.isdigit():
            return ("num", int(self.take()))
        name = self.ident()
        while self.peek() == ".":
            self.take()
            name += "." + self.ident()
        return ("id", name)


# ---------------------------------------------------------------------------
# Compilation to Python source: every expression becomes (source, type),
# where the type is "bool", "int", "sym" or ("set", element type).


def _kind(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return "int" if isinstance(value, int) else "sym"


class _Node:
    """One constraint of INIT or TRANS, shaped for solving.

    kind "and"/"or": `children`; "assign": unknown `var` := `value(c, n)`;
    "member": unknown `var` in the tuple `value(c, n)`; "test": any other
    expression.
    `unknowns` are the unknown variables it reads; `fn(c, n)` evaluates it
    once they are all set, and `guard(c)`, if set, is the conjunction of the
    top-level conjuncts that read no unknown."""

    __slots__ = ("kind", "src", "unknowns", "children", "var", "value", "guard", "_fn",
                 "_env")

    def __init__(self, kind, src, unknowns, env, **fields) -> None:
        self.kind, self.src, self.unknowns, self._env = kind, src, unknowns, env
        self.children = self.var = self.value = self.guard = self._fn = None
        for key, val in fields.items():
            setattr(self, key, val)

    @property
    def fn(self):
        if self._fn is None:
            self._fn = eval(f"lambda c, n: {self.src}", self._env)
        return self._fn


class SmvModel:
    def __init__(self, text: str) -> None:
        modules = _Parser(text).modules()
        if "main" not in modules:
            raise SmvError("no main module")
        self.names: list[str] = []
        self.domains: list[tuple] = []
        self._defines: dict[str, tuple] = {}  # full name -> (expr, prefix)
        sections: dict[str, list] = {"INIT": [], "TRANS": [], "LTLSPEC": []}
        self._flatten(modules, "main", "", sections)
        self.index = {name: i for i, name in enumerate(self.names)}
        self._symbols = {v for d in self.domains for v in d if isinstance(v, str)}
        self._consts: list = []
        self._const_ids: dict = {}
        self._env = {"K": self._consts, "_nocase": _nocase}
        self._memo: dict = {}
        self._trans_reads: set[int] = set()

        self._init = self._conjunction(sections["INIT"], "init")
        self._trans = self._conjunction(sections["TRANS"], "trans")
        reads = sorted(self._trans_reads)
        self._key = (lambda s: ()) if not reads else itemgetter(*reads)
        self.specs = []  # (temporal operators, compiled propositional core)
        for e, p in sections["LTLSPEC"]:
            ops = ""
            while e[0] == "temporal":
                ops += e[1]
                e = e[2]
            self.specs.append((ops, self._predicate(e, p)))
        self._succ: dict[tuple, frozenset] = {}

    def _flatten(self, modules, name, prefix, sections) -> None:
        mod = modules[name]
        for var, (kind, arg) in mod["vars"]:
            if kind == "module":
                if arg not in modules:
                    raise SmvError(f"unknown module {arg}")
                self._flatten(modules, arg, f"{prefix}{var}.", sections)
            else:
                self.names.append(prefix + var)
                self.domains.append(arg)
        for define, body in mod["defines"].items():
            self._defines[prefix + define] = (body, prefix)
        for section, items in sections.items():
            items.extend((e, prefix) for e in mod[section])

    # -- expressions

    def _const(self, value) -> str:
        if value not in self._const_ids:
            self._const_ids[value] = len(self._consts)
            self._consts.append(value)
        return f"K[{self._const_ids[value]}]"

    def _compile(self, e, prefix: str, mode: str, unknowns: set):
        """(Python source, type) of `e`; adds the unknown variables it reads.

        mode "init": variables are unknown; "trans": next() variables are;
        "state": nothing is, and next() is an error."""
        tag = e[0]
        if tag == "bool":
            return repr(e[1]), "bool"
        if tag == "num":
            return repr(e[1]), "int"
        if tag == "id":
            full = prefix + e[1]
            if full in self.index:
                i = self.index[full]
                if mode == "init":
                    unknowns.add(i)
                    return f"n[{i}]", _kind(self.domains[i][0])
                if mode == "trans":
                    self._trans_reads.add(i)
                return f"c[{i}]", _kind(self.domains[i][0])
            if full in self._defines:
                key = (full, mode)
                if key not in self._memo:
                    body, inner = self._defines[full]
                    self._memo[key] = None  # a define that uses itself fails below
                    found: set = set()
                    src, ty = self._compile(body, inner, mode, found)
                    self._memo[key] = (f"({src})", ty, frozenset(found))
                if self._memo[key] is None:
                    raise SmvError(f"define {full} is circular")
                src, ty, found = self._memo[key]
                unknowns |= found
                return src, ty
            if "." not in e[1] and e[1] in self._symbols:
                return self._const(e[1]), "sym"
            raise SmvError(f"undeclared identifier {full}")
        if tag == "next":
            if mode != "trans" or e[1][0] != "id" or prefix + e[1][1] not in self.index:
                raise SmvError(f"next() of {e[1]} outside TRANS or of a non-variable")
            i = self.index[prefix + e[1][1]]
            unknowns.add(i)
            return f"n[{i}]", _kind(self.domains[i][0])
        if tag == "not":
            src = self._typed(e[1], prefix, mode, unknowns, "bool", "!")
            return f"(not {src})", "bool"
        if tag in ("and", "or"):
            srcs = [self._typed(x, prefix, mode, unknowns, "bool", tag) for x in e[1]]
            return "(" + f" {tag} ".join(srcs) + ")", "bool"
        if tag == "set":
            items = [self._compile(x, prefix, mode, unknowns) for x in e[1]]
            kinds = {ty for _, ty in items}
            if len(kinds) != 1:
                raise SmvError("set literal mixes types")
            return "(" + ", ".join(src for src, _ in items) + ",)", ("set", kinds.pop())
        if tag == "case":
            arms = [
                (self._typed(cond, prefix, mode, unknowns, "bool", "case condition"),
                 self._compile(value, prefix, mode, unknowns))
                for cond, value in e[1]
            ]
            kinds = {ty for _, (_, ty) in arms}
            if len(kinds) != 1:
                raise SmvError("case arms of different types")
            src = "_nocase()"
            for cond, (value, _) in reversed(arms):
                src = f"({value} if {cond} else {src})"
            return src, kinds.pop()
        if tag == "temporal":
            raise SmvError(f"temporal operator {e[1]} inside a propositional formula")
        _, op, left, right = e
        lsrc, lty = self._compile(left, prefix, mode, unknowns)
        rsrc, rty = self._compile(right, prefix, mode, unknowns)
        if op == "in":
            if rty != ("set", lty):
                raise SmvError(f"`in` between {lty} and {rty}")
            return f"({lsrc} in {rsrc})", "bool"
        if op == "->":
            if (lty, rty) != ("bool", "bool"):
                raise SmvError(f"-> on {lty} and {rty}")
            return f"((not {lsrc}) or {rsrc})", "bool"
        if lty != rty or (op not in ("=", "!=") and lty != "int"):
            raise SmvError(f"{op} on {lty} and {rty}")
        if op in _COMPARE:
            return f"({lsrc} {_COMPARE[op]} {rsrc})", "bool"
        return f"({lsrc} {op} {rsrc})", "int"

    def _typed(self, e, prefix, mode, unknowns, want, what) -> str:
        src, ty = self._compile(e, prefix, mode, unknowns)
        if ty != want:
            raise SmvError(f"{what} applied to a {ty} operand")
        return src

    def _predicate(self, e, prefix):
        src = self._typed(e, prefix, "state", set(), "bool", "LTLSPEC")
        return eval(f"lambda c: {src}", self._env)

    def _conjunction(self, items, mode: str) -> _Node:
        """One solver node for every (expression, module prefix) of a section."""
        children = [self._constraint(e, mode, prefix) for e, prefix in items]
        src = " and ".join(f"({child.src})" for child in children) or "True"
        unknowns = frozenset().union(*(child.unknowns for child in children))
        return _Node("and", src, unknowns, self._env, children=children)

    def _constraint(self, e, mode: str, prefix: str) -> _Node:
        """A solver node for a boolean INIT or TRANS expression."""
        if e[0] == "id" and prefix + e[1] in self._defines:
            found: set = set()
            self._compile(e, prefix, mode, found)
            if found:  # a define that reads the unknowns is solved as its body
                body, inner = self._defines[prefix + e[1]]
                return self._constraint(body, mode, inner)
        unknowns: set = set()
        src, ty = self._compile(e, prefix, mode, unknowns)
        if ty != "bool":
            raise SmvError(f"a {ty} expression as a constraint")
        unknowns = frozenset(unknowns)
        node = lambda kind, **f: _Node(kind, src, unknowns, self._env, **f)  # noqa: E731
        if e[0] in ("and", "or"):
            children = [self._constraint(x, mode, prefix) for x in e[1]]
            if e[0] == "or":
                for child in children:
                    child.guard = self._guard(child)
            return node(e[0], children=children)
        target = self._unknown_var(e, prefix, mode)
        if target is not None:  # a bare boolean: x, or next(x)
            return node("assign", var=target, value=lambda c, n: True)
        if e[0] == "not" and self._unknown_var(e[1], prefix, mode) is not None:
            return node("assign", var=self._unknown_var(e[1], prefix, mode),
                        value=lambda c, n: False)
        if e[0] == "bin" and e[1] in ("=", "in"):
            _, op, left, right = e
            sides = [(left, right)] if op == "in" else [(left, right), (right, left)]
            for var_side, other in sides:
                var = self._unknown_var(var_side, prefix, mode)
                found: set = set()
                other_src, _ = self._compile(other, prefix, mode, found)
                if var is None or found:
                    continue
                value = eval(f"lambda c, n: {other_src}", self._env)
                if op == "=":
                    return node("assign", var=var, value=value)
                return node("member", var=var, value=value)
        return node("test")

    def _unknown_var(self, e, prefix: str, mode: str) -> int | None:
        """The variable `e` names if it is an unknown of this mode."""
        if mode == "trans" and e[0] == "next" and e[1][0] == "id":
            return self.index.get(prefix + e[1][1])
        if mode == "init" and e[0] == "id":
            return self.index.get(prefix + e[1])
        return None

    def _guard(self, node: _Node):
        known = [x for x in (node.children if node.kind == "and" else [node]) if not x.unknowns]
        if not known:
            return None
        return eval("lambda c: " + " and ".join(x.src for x in known), self._env)

    # -- solving

    def _solve(self, c, pending, n: dict, deferred, out: set) -> None:
        """Add to `out` every completion of `n` that satisfies the pending
        nodes (a linked list of (node, rest)) and the deferred tests."""
        while pending is not None:
            node, pending = pending
            kind = node.kind
            if kind == "and":
                for child in reversed(node.children):
                    pending = (child, pending)
            elif kind == "assign":
                value = node.value(c, n)
                if node.var not in n:
                    if value not in self.domains[node.var]:
                        raise SmvError(f"{self.names[node.var]} := {value!r} is outside its domain")
                    n[node.var] = value
                elif n[node.var] != value:
                    return
            elif kind == "or":
                live = []
                for child in node.children:
                    if child.guard is not None and not child.guard(c):
                        continue
                    if child.unknowns <= n.keys():
                        if child.fn(c, n):
                            break  # the disjunction holds whatever the rest is
                        continue
                    live.append(child)
                else:
                    if not live:
                        return
                    for child in live[:-1]:
                        self._solve(c, (child, pending), dict(n), deferred, out)
                    pending = (live[-1], pending)
            elif node.unknowns <= n.keys():
                if not node.fn(c, n):
                    return
            elif kind == "member":
                domain = self.domains[node.var]
                for value in dict.fromkeys(v for v in node.value(c, n) if v in domain):
                    self._solve(c, ((_fixed(node.var, value), None), pending), dict(n),
                                deferred, out)
                return
            else:
                deferred = (node, deferred)
        free = [i for i in range(len(self.names)) if i not in n]
        count = 1
        for i in free:
            count *= len(self.domains[i])
        if count > _MAX_FREE:
            raise SmvError(f"{count} valuations of unconstrained variables")
        for values in itertools.product(*(self.domains[i] for i in free)):
            n.update(zip(free, values))
            todo = deferred
            while todo is not None and todo[0].fn(c, n):
                todo = todo[1]
            if todo is None:
                out.add(tuple(n[i] for i in range(len(self.names))))

    def initial_states(self) -> set[tuple]:
        out: set = set()
        self._solve(None, (self._init, None), {}, None, out)
        return out

    def successors(self, state: tuple) -> frozenset:
        """Every next state; memoized on the variables TRANS reads."""
        key = self._key(state)
        if key not in self._succ:
            out: set = set()
            self._solve(state, (self._trans, None), {}, None, out)
            self._succ[key] = frozenset(out)
        return self._succ[key]

    @cached_property
    def reachable(self) -> frozenset:
        """The states reachable from an initial state."""
        return frozenset(self.reachable_within(None))

    def reachable_within(self, within, limit: int = 200_000) -> set[tuple]:
        """The states reachable through `within` (None: any state) only."""
        seen = {s for s in self.initial_states() if within is None or s in within}
        frontier = deque(seen)
        while frontier:
            for nxt in self.successors(frontier.popleft()):
                if nxt not in seen and (within is None or nxt in within):
                    seen.add(nxt)
                    if len(seen) > limit:
                        raise SmvError(f"more than {limit} reachable states")
                    frontier.append(nxt)
        return seen

    # -- verdicts

    def holds(self, k: int) -> bool:
        """Whether LTLSPEC number k, a G, F, F G or G F of a propositional
        core, holds on every infinite path from an initial state."""
        ops, core = self.specs[k]
        pattern = re.sub(r"(.)\1+", r"\1", ops)  # G G p is G p
        states = self.reachable
        bad = {s for s in states if not core(s)}
        if pattern == "G":  # no !p state on an infinite path
            live: set = set()
            for scc in self._sccs(states):
                if self._cycle(scc) or any(
                    t in live for s in scc for t in self.successors(s)
                ):
                    live.update(scc)
            return not bad & live
        if pattern == "F":  # no infinite path that stays in !p from the start
            return not any(self._cycle(c) for c in self._sccs(self.reachable_within(bad)))
        if pattern == "GF":  # no infinite path that ends in !p
            return not any(self._cycle(c) for c in self._sccs(bad))
        if pattern == "FG":  # no infinite path through !p infinitely often
            return not any(self._cycle(c) and bad.intersection(c) for c in self._sccs(states))
        raise SmvError(f"no verdict for the temporal operators {ops!r}")

    def _cycle(self, scc: list) -> bool:
        """An infinite path can stay in `scc`."""
        return len(scc) > 1 or scc[0] in self.successors(scc[0])

    def _sccs(self, nodes: set) -> list[list]:
        """Strongly connected components of the graph on `nodes` (Tarjan),
        each listed after every component it reaches."""
        index: dict = {}
        low: dict = {}
        stack: list = []
        out: list = []
        for root in nodes:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            work = [(root, iter(self.successors(root)))]
            while work:
                v, edges = work[-1]
                for w in edges:
                    if w not in nodes:
                        continue
                    if w not in index:
                        index[w] = low[w] = len(index)
                        stack.append(w)
                        work.append((w, iter(self.successors(w))))
                        break
                    if w in low:  # still on the stack
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    if work:
                        u = work[-1][0]
                        low[u] = min(low[u], low[v])
                    if low[v] == index[v]:
                        scc = []
                        while not scc or scc[-1] != v:
                            scc.append(stack.pop())
                            del low[scc[-1]]
                        out.append(scc)
        return out


def _nocase():
    raise SmvError("no case condition holds")


def _fixed(var: int, value) -> _Node:
    return _Node("assign", "", frozenset(), None, var=var, value=lambda c, n: value)
