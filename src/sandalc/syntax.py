"""Parse-tree node definitions.

All nodes are frozen records (record.py).  Source positions are carried for
diagnostics in a keyword-only `pos` that equality, hashing and repr leave
out, so two trees parsed from differently formatted sources compare equal
when they describe the same model.
"""

from __future__ import annotations

from .errors import NO_POS, Pos
from .record import Hidden, record


# ---------------------------------------------------------------------------
# Types (surface syntax level)


@record
class TypeNode:
    pos: Pos = Hidden(NO_POS)


@record
class BoolTypeNode(TypeNode):
    pass


@record
class NamedTypeNode(TypeNode):
    name: str


@record
class ChanTypeNode(TypeNode):
    payload: tuple[TypeNode, ...]
    capacity: int | None  # None: rendezvous; N >= 1: buffered


@record
class ChanArrayTypeNode(TypeNode):
    elem: ChanTypeNode


# ---------------------------------------------------------------------------
# Expressions


@record
class Expr:
    pos: Pos = Hidden(NO_POS)


@record
class BoolLit(Expr):
    value: bool


@record
class Name(Expr):
    ident: str


@record
class Qualified(Expr):
    """Dotted reference `instance.variable`; meaningful only in ltl blocks."""

    instance: str
    variable: str


@record
class Unary(Expr):
    op: str  # "!"
    operand: Expr


# The binary operators by precedence level, loosest first.  `->` associates
# to the right, `||` and `&&` to the left, and `==` and `!=` not at all.
BINARY_LEVELS = (("->",), ("||",), ("&&",), ("==", "!="))


@record
class Binary(Expr):
    op: str  # one of BINARY_LEVELS
    left: Expr
    right: Expr


@record
class Temporal(Expr):
    """G or F applied to a formula; only produced inside ltl blocks."""

    op: str  # "G" or "F"
    operand: Expr


@record
class RecvExpr(Expr):
    """timeout_recv / nonblock_recv; boolean-valued receive with targets."""

    form: str  # "timeout_recv" or "nonblock_recv"
    channel: Expr
    targets: tuple[str, ...]


@record
class ArrayLit(Expr):
    """[a, b, ...]; legal only as a process-instantiation argument."""

    elements: tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Statements


@record
class Stmt:
    pos: Pos = Hidden(NO_POS)


@record
class Block:
    stmts: tuple[Stmt, ...]
    pos: Pos = Hidden(NO_POS)


@record
class VarDecl(Stmt):
    name: str
    type: TypeNode
    init: Expr | None  # None: no initializer


@record
class Assign(Stmt):
    name: str
    value: Expr


@record
class Send(Stmt):
    channel: Expr
    values: tuple[Expr, ...]


@record
class Recv(Stmt):
    """A receive statement: recv, or peek, which leaves the message in its
    buffered channel."""

    form: str  # "recv" or "peek"
    channel: Expr
    targets: tuple[str, ...]


@record
class If(Stmt):
    cond: Expr
    then: Block
    els: Block | None  # None: no else branch


@record
class For(Stmt):
    var: str
    iterable: Expr
    body: Block


@record
class Choice(Stmt):
    blocks: tuple[Block, ...]


@record
class ExprStmt(Stmt):
    expr: Expr


# ---------------------------------------------------------------------------
# Declarations


@record
class Param:
    name: str
    type: TypeNode
    pos: Pos = Hidden(NO_POS)


@record
class DataDecl:
    name: str
    constructors: tuple[str, ...]
    pos: Pos = Hidden(NO_POS)


@record
class ProcTemplate:
    name: str
    params: tuple[Param, ...]
    body: Block
    pos: Pos = Hidden(NO_POS)


@record
class ProcessInstantiation:
    template: str
    args: tuple[Expr, ...]


@record
class ChannelInstantiation:
    type: ChanTypeNode


@record
class InitEntry:
    name: str
    payload: ProcessInstantiation | ChannelInstantiation
    markers: frozenset[str]  # subset of {"shutdown", "drop"}
    pos: Pos = Hidden(NO_POS)

    @property
    def is_process(self) -> bool:
        return isinstance(self.payload, ProcessInstantiation)


@record
class LtlSpec:
    formula: Expr
    pos: Pos = Hidden(NO_POS)


@record
class ModelAST:
    data_decls: tuple[DataDecl, ...]
    proc_decls: tuple[ProcTemplate, ...]
    init_block: tuple[InitEntry, ...]
    ltl_specs: tuple[LtlSpec, ...]
