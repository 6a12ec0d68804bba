"""Canonical source renderer for ModelAST, for the parser's round-trip tests.

print_model is the inverse of parsing up to formatting: for any tree,
parse_source(print_model(tree)) is structurally equal to the tree.
"""

from __future__ import annotations

from sandalc import syntax as ast
from sandalc.pretty import print_expr


def print_type(ty: ast.TypeNode) -> str:
    if isinstance(ty, ast.BoolTypeNode):
        return "bool"
    if isinstance(ty, ast.NamedTypeNode):
        return ty.name
    if isinstance(ty, ast.ChanTypeNode):
        cap = f" [{ty.capacity}]" if ty.capacity is not None else ""
        inner = ", ".join(print_type(t) for t in ty.payload)
        return f"channel{cap} {{ {inner} }}"
    if isinstance(ty, ast.ChanArrayTypeNode):
        return "[]" + print_type(ty.elem)
    raise TypeError(f"unknown type node {ty!r}")


def _print_stmt(s: ast.Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(s, ast.VarDecl):
        line = f"{pad}var {s.name} {print_type(s.type)}"
        if s.init is not None:
            line += f" = {print_expr(s.init)}"
        out.append(line)
    elif isinstance(s, ast.Assign):
        out.append(f"{pad}{s.name} = {print_expr(s.value)}")
    elif isinstance(s, ast.Send):
        args = ", ".join([print_expr(s.channel)] + [print_expr(v) for v in s.values])
        out.append(f"{pad}send({args})")
    elif isinstance(s, ast.Recv):
        args = ", ".join((print_expr(s.channel),) + s.targets)
        out.append(f"{pad}{s.form}({args})")
    elif isinstance(s, ast.If):
        out.append(f"{pad}if {print_expr(s.cond)} {{")
        _print_block_body(s.then, indent + 1, out)
        if s.els is not None:
            out.append(f"{pad}}} else {{")
            _print_block_body(s.els, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, ast.For):
        out.append(f"{pad}for {s.var} in {print_expr(s.iterable)} {{")
        _print_block_body(s.body, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, ast.Choice):
        # `}, {` is kept on one line so no statement separator is inserted
        # between the alternatives.
        out.append(f"{pad}choice {{")
        for k, block in enumerate(s.blocks):
            if k > 0:
                out.append(f"{pad}}}, {{")
            _print_block_body(block, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, ast.ExprStmt):
        out.append(pad + print_expr(s.expr))
    else:
        raise TypeError(f"unknown statement node {s!r}")


def _print_block_body(block: ast.Block, indent: int, out: list[str]) -> None:
    for stmt in block.stmts:
        _print_stmt(stmt, indent, out)


def print_model(model: ast.ModelAST) -> str:
    out: list[str] = []
    for d in model.data_decls:
        out.append(f"data {d.name} {{ {', '.join(d.constructors)} }}")
    for proc in model.proc_decls:
        params = ", ".join(f"{p.name} {print_type(p.type)}" for p in proc.params)
        out.append(f"proc {proc.name}({params}) {{")
        _print_block_body(proc.body, 1, out)
        out.append("}")
    out.append("init {")
    for entry in model.init_block:
        if isinstance(entry.payload, ast.ProcessInstantiation):
            args = ", ".join(print_expr(a) for a in entry.payload.args)
            text = f"{entry.payload.template}({args})"
        else:
            text = print_type(entry.payload.type)
        for marker in sorted(entry.markers):
            text += f" @{marker}"
        out.append(f"  {entry.name}: {text},")
    out.append("}")
    for spec in model.ltl_specs:
        out.append(f"ltl {{ {print_expr(spec.formula)} }}")
    return "\n".join(out) + "\n"
