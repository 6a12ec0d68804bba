"""Parse-tree node definitions.

All nodes are immutable dataclasses.  Source positions are carried for
diagnostics but excluded from equality, so two trees parsed from differently
formatted sources compare equal when they describe the same model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NO_POS, Pos


def _pos_field():
    return field(default=NO_POS, compare=False, repr=False, kw_only=True)


# ---------------------------------------------------------------------------
# Types (surface syntax level)


@dataclass(frozen=True)
class TypeNode:
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class BoolTypeNode(TypeNode):
    pass


@dataclass(frozen=True)
class NamedTypeNode(TypeNode):
    name: str = ""


@dataclass(frozen=True)
class ChanTypeNode(TypeNode):
    payload: tuple[TypeNode, ...] = ()
    capacity: int | None = None  # None: rendezvous; N >= 1: buffered


@dataclass(frozen=True)
class ChanArrayTypeNode(TypeNode):
    elem: ChanTypeNode = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Expr:
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool = False


@dataclass(frozen=True)
class Name(Expr):
    ident: str = ""


@dataclass(frozen=True)
class Qualified(Expr):
    """Dotted reference `instance.variable`; meaningful only in ltl blocks."""

    instance: str = ""
    variable: str = ""


@dataclass(frozen=True)
class Unary(Expr):
    op: str = "!"
    operand: Expr = None  # type: ignore[assignment]


# The binary operators by precedence level, loosest first.  `->` associates
# to the right, `||` and `&&` to the left, and `==` and `!=` not at all.
BINARY_LEVELS = (("->",), ("||",), ("&&",), ("==", "!="))


@dataclass(frozen=True)
class Binary(Expr):
    op: str = ""  # one of BINARY_LEVELS
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Temporal(Expr):
    """G or F applied to a formula; only produced inside ltl blocks."""

    op: str = "G"
    operand: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class RecvExpr(Expr):
    """timeout_recv / nonblock_recv; boolean-valued receive with targets."""

    form: str = "timeout_recv"  # or "nonblock_recv"
    channel: Expr = None  # type: ignore[assignment]
    targets: tuple[str, ...] = ()


@dataclass(frozen=True)
class ArrayLit(Expr):
    """[a, b, ...]; legal only as a process-instantiation argument."""

    elements: tuple[Expr, ...] = ()


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class Stmt:
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Block:
    stmts: tuple[Stmt, ...] = ()
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class VarDecl(Stmt):
    name: str = ""
    type: TypeNode = None  # type: ignore[assignment]
    init: Expr | None = None


@dataclass(frozen=True)
class Assign(Stmt):
    name: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Send(Stmt):
    channel: Expr = None  # type: ignore[assignment]
    values: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Recv(Stmt):
    """A receive statement: recv, or peek, which leaves the message in its
    buffered channel."""

    form: str = "recv"  # or "peek"
    channel: Expr = None  # type: ignore[assignment]
    targets: tuple[str, ...] = ()


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Block = None  # type: ignore[assignment]
    els: Block | None = None


@dataclass(frozen=True)
class For(Stmt):
    var: str = ""
    iterable: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Choice(Stmt):
    blocks: tuple[Block, ...] = ()


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class Param:
    name: str = ""
    type: TypeNode = None  # type: ignore[assignment]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class DataDecl:
    name: str = ""
    constructors: tuple[str, ...] = ()
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class ProcTemplate:
    name: str = ""
    params: tuple[Param, ...] = ()
    body: Block = None  # type: ignore[assignment]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class ProcessInstantiation:
    template: str = ""
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class ChannelInstantiation:
    type: ChanTypeNode = None  # type: ignore[assignment]


@dataclass(frozen=True)
class InitEntry:
    name: str = ""
    payload: ProcessInstantiation | ChannelInstantiation = None  # type: ignore[assignment]
    markers: frozenset[str] = frozenset()  # subset of {"shutdown", "drop"}
    pos: Pos = _pos_field()

    @property
    def is_process(self) -> bool:
        return isinstance(self.payload, ProcessInstantiation)


@dataclass(frozen=True)
class LtlSpec:
    formula: Expr = None  # type: ignore[assignment]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class ModelAST:
    data_decls: tuple[DataDecl, ...] = ()
    proc_decls: tuple[ProcTemplate, ...] = ()
    init_block: tuple[InitEntry, ...] = ()
    ltl_specs: tuple[LtlSpec, ...] = ()
