"""Sandal's spelling of an expression, for transition and ltl spec texts.

print_expr is the inverse of parsing an expression up to formatting: it puts
in exactly the parentheses that the operators' precedence needs.
"""

from __future__ import annotations

from . import syntax as ast

_PREC = {op: prec for prec, ops in enumerate(ast.BINARY_LEVELS, 1) for op in ops}
_UNARY_PREC = len(ast.BINARY_LEVELS) + 1


def print_expr(e: ast.Expr, min_prec: int = 0) -> str:
    if isinstance(e, ast.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, ast.Name):
        return e.ident
    if isinstance(e, ast.Qualified):
        return f"{e.instance}.{e.variable}"
    if isinstance(e, ast.Unary):
        return "!" + print_expr(e.operand, _UNARY_PREC)
    if isinstance(e, ast.Temporal):
        return f"{e.op} ({print_expr(e.operand)})"
    if isinstance(e, ast.RecvExpr):
        args = ", ".join((print_expr(e.channel),) + e.targets)
        return f"{e.form}({args})"
    if isinstance(e, ast.ArrayLit):
        return "[" + ", ".join(print_expr(x) for x in e.elements) + "]"
    if isinstance(e, ast.Binary):
        prec = _PREC[e.op]
        if e.op == "->":  # right-associative
            text = f"{print_expr(e.left, prec + 1)} -> {print_expr(e.right, prec)}"
        elif e.op in ("==", "!="):  # non-associative
            text = f"{print_expr(e.left, prec + 1)} {e.op} {print_expr(e.right, prec + 1)}"
        else:
            text = f"{print_expr(e.left, prec)} {e.op} {print_expr(e.right, prec + 1)}"
        return f"({text})" if prec < min_prec else text
    raise TypeError(f"unknown expression node {e!r}")
