"""Value semantics of the compiler's record classes (sandalc.record).

Equality, hashing and repr read the fields; a parse-tree node's `pos` is
keyword-only and none of the three read it.  Equality is class-sensitive,
and the hash is that of the tuple of compared fields, so set and dict order
over records does not depend on how the classes are built.
"""

import ast
from pathlib import Path

import pytest

from sandalc import ir, sema, syntax
from sandalc.errors import NO_POS, Pos
from sandalc.record import Hidden, record, replace


def _atom():
    return sema.PAtom(0, 1)


@record
class _Cell:
    """A record with defaults: parse-tree nodes default only their `pos`."""

    items: tuple = ()
    cap: int | None = None
    pos: Pos = Hidden(NO_POS)


def test_eq_and_hash_ignore_pos_and_repr_omits_it():
    a, b = syntax.Name("x", pos=Pos(1, 2)), syntax.Name("x", pos=Pos(3, 4))
    assert a == b and hash(a) == hash(b) and a.pos == Pos(1, 2)
    assert repr(a) == "Name(ident='x')"
    assert syntax.Name("x") != syntax.Name("y")
    block = syntax.Block((syntax.ExprStmt(a, pos=Pos(1, 1)),), pos=Pos(9, 9))
    assert block == syntax.Block((syntax.ExprStmt(b),))
    assert repr(block) == "Block(stmts=(ExprStmt(expr=Name(ident='x')),))"
    assert repr(syntax.BoolTypeNode(pos=Pos(1, 1))) == "BoolTypeNode()"


def test_repr_and_hash_read_the_fields_in_order():
    prop = sema.PBin("&&", sema.PBool(True), _atom())
    assert repr(prop) == (
        "PBin(op='&&', left=PBool(value=True), right=PAtom(proc=0, slot=1))"
    )
    assert hash(ir.EChanBufItem(2, 1)) == hash((2, 1))
    assert hash(sema.BOOL) == hash(()) and sema.BoolType() == sema.BOOL
    assert _Cell() == _Cell(items=(), cap=None) and hash(_Cell()) == hash(((), None))


def test_equality_is_class_sensitive():
    assert ir.EChanReady(0) == ir.EChanReady(0)
    assert ir.EChanReady(0) != ir.EChanReceived(0)
    assert ir.AFinishSend(0) != ir.APop(0)
    assert len({ir.EChanReady(0), ir.EChanReceived(0)}) == 2
    assert len({ir.AFinishSend(3), ir.APop(3)}) == 2
    assert ir.EVar(0) != (0,) and sema.BOOL != ()


def test_frozen_assignment_raises():
    name = syntax.Name("x")
    t = ir.Transition(0, 1, ir.TRUE, (), "k", "d", NO_POS)
    for obj, field in ((name, "ident"), (name, "pos"), (t, "dst"), (_atom(), "slot")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert name.ident == "x" and t.dst == 1
    assert t.label == "d [k]" and t.__dict__["label"] == "d [k]"  # cached_property


def test_template_info_and_checked_model_are_frozen_and_unhashable():
    template = syntax.ProcTemplate("T", (), syntax.Block(()))
    given = {2: (3,)}
    info = sema.TemplateInfo(template, {}, [], {}, resolved=given)
    assert info.resolved is given
    checked = sema.CheckedModel({}, {"T": info}, (), (), ())
    for obj, field in ((info, "resolved"), (info, "slots"), (checked, "templates")):
        with pytest.raises(AttributeError):
            setattr(obj, field, {})
        with pytest.raises(AttributeError):
            delattr(obj, field)
    for obj in (info, checked):  # their tables are dicts
        with pytest.raises(TypeError):
            hash(obj)
    info.resolved[1] = sema.LocalVar(0, "x", sema.BOOL)  # tables are filled in place
    assert given == {2: (3,), 1: sema.LocalVar(0, "x", sema.BOOL)}


def test_pos_is_keyword_only():
    with pytest.raises(TypeError):
        syntax.Name("x", Pos(1, 1))
    with pytest.raises(TypeError):
        syntax.Block((), Pos(1, 1))
    with pytest.raises(TypeError):
        syntax.Param("p", syntax.BoolTypeNode(), Pos(1, 1))
    with pytest.raises(TypeError):
        _Cell((), None, Pos(1, 1))
    assert _Cell().cap is None and _Cell().pos == NO_POS
    assert syntax.BoolLit(False).pos == NO_POS
    assert syntax.Param("p", syntax.BoolTypeNode(), pos=Pos(2, 3)).pos == Pos(2, 3)
    with pytest.raises(TypeError):  # a parse-tree field other than pos has no default
        syntax.BoolLit()
    # A Transition's pos is an ordinary field: positional, compared, shown.
    t = ir.Transition(0, 1, ir.TRUE, (), "k", "d", Pos(1, 1))
    assert t != ir.Transition(0, 1, ir.TRUE, (), "k", "d", Pos(2, 2))
    assert repr(t).endswith("pos=Pos(line=1, col=1))")


def test_replace_keeps_the_untouched_fields_and_pos():
    recv = syntax.Recv("peek", syntax.Name("c"), ("a",), pos=Pos(4, 5))
    changed = replace(recv, targets=("b",))
    assert type(changed) is syntax.Recv and changed.pos == Pos(4, 5)
    assert changed == syntax.Recv("peek", syntax.Name("c"), ("b",))
    assert replace(recv, pos=Pos(6, 7)).pos == Pos(6, 7) and recv.pos == Pos(4, 5)
    automaton = ir.ProcessAutomaton("w", 2, 0, 1, (), (), shutdown_loc=None)
    assert replace(automaton, shutdown_loc=1) == ir.ProcessAutomaton("w", 2, 0, 1, (), (), 1)
    with pytest.raises(TypeError):
        replace(recv, no_such_field=1)


ROOT = Path(__file__).resolve().parent.parent

# Fields that nothing in src/ or bench/ reads, each kept for its reason.
UNREAD_FIELDS = {
    # The weaver's input, which the weaving tests compare with its output.
    "BuildResult.unwoven",
}


def test_every_record_field_is_read():
    """Every field of a record class in src/sandalc is read, as an attribute,
    somewhere in src/ or bench/: a field nothing reads is dead weight."""
    read = {
        node.attr
        for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        f"{node.name}.{item.target.id}"
        for path in (ROOT / "src" / "sandalc").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    assert len(fields) > 100
    assert sorted(f for f in fields if f.split(".")[1] not in read) == sorted(UNREAD_FIELDS)
