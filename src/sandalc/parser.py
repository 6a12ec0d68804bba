"""Recursive-descent parser producing a ModelAST from a token stream.

Statement separators are semicolons, real or newline-inserted (see lexer).
Comma-separated lists (init entries, data constructors, arguments, parameters)
skip newline-inserted separators so entries may span lines, but still require
the commas themselves.

Every later stage recurses over the tree, so two bounds keep it within
Python's stack; past either one, parsing stops with a ParseError.

* Nesting: a block, a parenthesized expression, the operand of `!`, `G` or
  `F`, the right side of `->`, an `else if` and a channel payload type each
  open one level, and at most 64 levels may be open.  This also bounds the
  parser's own recursion, about three frames per parenthesis.
* Expression depth: the tree of a whole expression may be at most 256 nodes
  deep.  Left-associative chains (`a && b && ...`) open no nesting level,
  since a wide model's specs chain one conjunct per process, so this bound,
  measured without recursion, is what limits them.
"""

from __future__ import annotations

from .errors import ParseError, Pos
from .lexer import Token, TokenKind, tokenize
from . import syntax as ast

_MAX_NESTING = 64
_MAX_EXPR_DEPTH = 256
# Precedence climbing: each binary operator's index in ast.BINARY_LEVELS.
_LEVELS = {op: level for level, ops in enumerate(ast.BINARY_LEVELS) for op in ops}
_EQUALITY = _LEVELS["=="]


def _too_deep(expr: ast.Expr) -> bool:
    """Whether a root-to-leaf path of the tree has more than _MAX_EXPR_DEPTH nodes."""
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_EXPR_DEPTH:
            return True
        if isinstance(node, ast.Binary):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        elif isinstance(node, (ast.Unary, ast.Temporal)):
            stack.append((node.operand, depth + 1))
    return False


def _starts_operand(tok: Token) -> bool:
    """Whether `G` or `F` before `tok` is an operator rather than a name."""
    return tok.kind is TokenKind.IDENT or tok.text in ("(", "!", "true", "false")


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # open nesting levels
        self.ltl = False  # inside an ltl block, where `G` and `F` are operators

    # -- token plumbing ----------------------------------------------------

    def at(self, text: str) -> bool:
        """Whether the current token is the keyword or punctuation `text`: the
        lexer gives such a text to no token of another kind."""
        return self.tokens[self.i].text == text

    def expect(self, text: str, context: str) -> Token:
        tok = self.tokens[self.i]
        if tok.text != text:
            raise ParseError(f"expected {text!r} {context}, found {tok}", tok.pos)
        self.i += 1
        return tok

    def expect_ident(self, context: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier {context}, found {tok}", tok.pos)
        self.i += 1
        return tok

    def enter(self, tok: Token) -> None:
        """Open one nesting level at `tok`; close it with `leave`."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting is deeper than {_MAX_NESTING} levels", tok.pos)
        self.depth += 1

    def leave(self) -> None:
        self.depth -= 1

    def skip_newlines(self) -> None:
        """Skip newline-inserted separators (used inside comma lists)."""
        tokens = self.tokens
        while tokens[self.i].synthetic and tokens[self.i].text == ";":
            self.i += 1

    def skip_separators(self) -> None:
        tokens = self.tokens
        while tokens[self.i].text == ";":
            self.i += 1

    # -- top level ----------------------------------------------------------

    def parse_model(self) -> ast.ModelAST:
        data_decls: list[ast.DataDecl] = []
        procs: list[ast.ProcTemplate] = []
        init_entries: tuple[ast.InitEntry, ...] | None = None
        ltl_specs: list[ast.LtlSpec] = []
        while True:
            self.skip_separators()
            tok = self.tokens[self.i]
            if tok.kind is TokenKind.EOF:
                break
            if tok.text == "data":
                data_decls.append(self.parse_data())
            elif tok.text == "proc":
                procs.append(self.parse_proc())
            elif tok.text == "init":
                if init_entries is not None:
                    raise ParseError("duplicate init-block (a model has exactly one)", tok.pos)
                init_entries = self.parse_init()
            elif tok.text == "ltl":
                ltl_specs.append(self.parse_ltl())
            else:
                raise ParseError(
                    f"expected 'data', 'proc', 'init' or 'ltl' at top level, found {tok}",
                    tok.pos,
                )
        if init_entries is None:
            raise ParseError("model has no init-block", tok.pos)
        return ast.ModelAST(
            data_decls=tuple(data_decls),
            proc_decls=tuple(procs),
            init_block=init_entries,
            ltl_specs=tuple(ltl_specs),
        )

    def parse_data(self) -> ast.DataDecl:
        kw = self.expect("data", "to start a data declaration")
        name = self.expect_ident("after 'data'")
        self.expect("{", "to open the constructor list")
        ctors = self.comma_list(lambda: self.expect_ident("as a constructor name").text, "}")
        if not ctors:
            raise ParseError(f"data type '{name.text}' declares no constructors", name.pos)
        self.expect("}", "to close the constructor list")
        return ast.DataDecl(name=name.text, constructors=tuple(ctors), pos=kw.pos)

    def parse_proc(self) -> ast.ProcTemplate:
        kw = self.expect("proc", "to start a process template")
        name = self.expect_ident("after 'proc'")
        self.expect("(", "to open the parameter list")
        params = self.comma_list(self.parse_param, ")")
        self.expect(")", "to close the parameter list")
        seen: set[str] = set()
        for p in params:
            if p.name in seen:
                raise ParseError(f"duplicate parameter name '{p.name}'", p.pos)
            seen.add(p.name)
        body = self.parse_block()
        return ast.ProcTemplate(name=name.text, params=tuple(params), body=body, pos=kw.pos)

    def parse_param(self) -> ast.Param:
        name = self.expect_ident("as a parameter name")
        ty = self.parse_type()
        return ast.Param(name=name.text, type=ty, pos=name.pos)

    def parse_init(self) -> tuple[ast.InitEntry, ...]:
        self.expect("init", "to start the init-block")
        self.expect("{", "to open the init-block")
        entries = self.comma_list(self.parse_init_entry, "}")
        self.expect("}", "to close the init-block")
        return tuple(entries)

    def parse_init_entry(self) -> ast.InitEntry:
        name = self.expect_ident("as an instance name")
        self.expect(":", "after the instance name")
        self.skip_newlines()
        payload: ast.ProcessInstantiation | ast.ChannelInstantiation
        if self.at("channel"):
            payload = ast.ChannelInstantiation(type=self.parse_chan_type())
        else:
            template = self.expect_ident("as a process template name")
            self.expect("(", "to open the argument list")
            args = self.comma_list(self.parse_init_arg, ")")
            self.expect(")", "to close the argument list")
            payload = ast.ProcessInstantiation(template=template.text, args=tuple(args))
        markers: set[str] = set()
        while self.tokens[self.i].kind is TokenKind.FAULT_MARKER:
            marker = self.tokens[self.i]
            self.i += 1
            if marker.marker_name in markers:
                raise ParseError(f"duplicate fault marker '{marker.text}'", marker.pos)
            markers.add(marker.marker_name)
        entry = ast.InitEntry(
            name=name.text, payload=payload, markers=frozenset(markers), pos=name.pos
        )
        if entry.is_process and "drop" in markers:
            raise ParseError("@drop applies to channels, not processes", name.pos)
        if not entry.is_process and "shutdown" in markers:
            raise ParseError("@shutdown applies to processes, not channels", name.pos)
        return entry

    def parse_init_arg(self) -> ast.Expr:
        open_tok = self.tokens[self.i]
        if open_tok.text == "[":
            self.i += 1
            elems = self.comma_list(self.parse_expr, "]")
            self.expect("]", "to close the array literal")
            return ast.ArrayLit(elements=tuple(elems), pos=open_tok.pos)
        return self.parse_expr()

    def parse_ltl(self) -> ast.LtlSpec:
        kw = self.expect("ltl", "to start an ltl block")
        self.expect("{", "to open the ltl block")
        self.skip_newlines()
        self.ltl = True
        formula = self.parse_expr()
        self.ltl = False
        self.skip_newlines()
        self.expect("}", "to close the ltl block")
        return ast.LtlSpec(formula=formula, pos=kw.pos)

    def comma_list(self, parse_item, closer: str) -> list:
        """Parse `item (, item)* ,?` until `closer`, tolerating newlines."""
        items = []
        self.skip_newlines()
        while self.tokens[self.i].text != closer:
            items.append(parse_item())
            self.skip_newlines()
            tok = self.tokens[self.i]
            if tok.text == ",":
                self.i += 1
                self.skip_newlines()
            elif tok.text != closer:
                raise ParseError(f"expected ',' or {closer!r}, found {tok}", tok.pos)
        return items

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> ast.TypeNode:
        tok = self.tokens[self.i]
        if tok.kind is TokenKind.IDENT:
            self.i += 1
            return ast.NamedTypeNode(name=tok.text, pos=tok.pos)
        if tok.text == "bool":
            self.i += 1
            return ast.BoolTypeNode(pos=tok.pos)
        if tok.text == "channel":
            return self.parse_chan_type()
        if tok.text == "[":
            self.i += 1
            self.expect("]", "after '[' in a channel-array type")
            elem = self.parse_chan_type()
            return ast.ChanArrayTypeNode(elem=elem, pos=tok.pos)
        raise ParseError(f"expected a type, found {tok}", tok.pos)

    def parse_chan_type(self) -> ast.ChanTypeNode:
        kw = self.expect("channel", "to start a channel type")
        capacity: int | None = None
        if self.at("["):
            num = self.tokens[self.i + 1]
            if num.kind is not TokenKind.NUMBER:
                raise ParseError(f"expected a buffer capacity, found {num}", num.pos)
            self.i += 2
            digits = num.text.lstrip("0")
            if len(digits) > 9:  # int() refuses strings past 4300 digits
                raise ParseError("buffer capacity is too large", num.pos)
            capacity = int(digits or "0")
            if capacity < 1:
                raise ParseError("buffer capacity must be at least 1", num.pos)
            self.expect("]", "after the buffer capacity")
        self.expect("{", "to open the channel payload type")
        self.enter(kw)
        payload = self.comma_list(self.parse_type, "}")
        self.leave()
        if not payload:
            raise ParseError("channel type has an empty payload list", kw.pos)
        for ty in payload:
            if isinstance(ty, (ast.ChanTypeNode, ast.ChanArrayTypeNode)):
                raise ParseError("channel payloads must be value types", ty.pos)
        self.expect("}", "to close the channel payload type")
        return ast.ChanTypeNode(payload=tuple(payload), capacity=capacity, pos=kw.pos)

    # -- statements ------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_tok = self.expect("{", "to open a block")
        self.enter(open_tok)
        stmts: list[ast.Stmt] = []
        self.skip_separators()
        while self.tokens[self.i].text != "}":
            stmts.append(self.parse_stmt())
            tok = self.tokens[self.i]
            if tok.text == ";":
                self.skip_separators()
            elif tok.text != "}":
                raise ParseError(
                    f"expected ';', newline or '}}' after a statement, found {tok}", tok.pos
                )
        self.i += 1  # the "}" that ended the loop
        self.leave()
        return ast.Block(stmts=tuple(stmts), pos=open_tok.pos)

    def parse_stmt(self) -> ast.Stmt:
        tok = self.tokens[self.i]
        text = tok.text
        if tok.kind is TokenKind.IDENT and self.tokens[self.i + 1].text == "=":
            self.i += 2
            value = self.parse_rhs()
            return ast.Assign(name=text, value=value, pos=tok.pos)
        if text == "var":
            return self.parse_var_decl()
        if text == "send":
            self.i += 1
            chan, rest = self.parse_messaging_args(values=True)
            if not rest:
                raise ParseError("send needs at least one value after the channel", tok.pos)
            return ast.Send(channel=chan, values=tuple(rest), pos=tok.pos)
        if text == "for":
            return self.parse_for()
        if text == "recv" or text == "peek":
            self.i += 1
            chan, names = self.parse_messaging_args(values=False)
            if not names:
                raise ParseError(f"{text} needs at least one target variable", tok.pos)
            return ast.Recv(form=text, channel=chan, targets=tuple(names), pos=tok.pos)
        if text == "if":
            return self.parse_if()
        if text == "choice":
            return self.parse_choice()
        expr = self.parse_expr()
        return ast.ExprStmt(expr=expr, pos=tok.pos)

    def parse_var_decl(self) -> ast.VarDecl:
        kw = self.expect("var", "to start a variable declaration")
        name = self.expect_ident("as the variable name")
        ty = self.parse_type()
        init = None
        if self.at("="):
            self.i += 1
            init = self.parse_rhs()
        return ast.VarDecl(name=name.text, type=ty, init=init, pos=kw.pos)

    def parse_rhs(self) -> ast.Expr:
        """Right-hand side of `=` or an if condition: a receive expression or an
        ordinary expression."""
        text = self.tokens[self.i].text
        if text == "timeout_recv" or text == "nonblock_recv":
            return self.parse_recv_expr()
        return self.parse_expr()

    def parse_recv_expr(self) -> ast.RecvExpr:
        form_tok = self.tokens[self.i]
        self.i += 1
        chan, names = self.parse_messaging_args(values=False)
        if not names:
            raise ParseError(f"{form_tok.text} needs at least one target variable", form_tok.pos)
        return ast.RecvExpr(
            form=form_tok.text, channel=chan, targets=tuple(names), pos=form_tok.pos
        )

    def parse_messaging_args(self, values: bool):
        """`( channel , x, y, ... )` — values or plain target names after the channel."""
        self.expect("(", "to open the argument list")
        self.skip_newlines()
        chan = self.parse_expr()
        rest = []
        self.skip_newlines()
        while self.at(","):
            self.i += 1
            self.skip_newlines()
            if self.at(")"):
                break
            if values:
                rest.append(self.parse_expr())
            else:
                rest.append(self.expect_ident("as a receive target").text)
            self.skip_newlines()
        self.expect(")", "to close the argument list")
        return chan, rest

    def parse_if(self) -> ast.If:
        kw = self.expect("if", "to start an if statement")
        cond = self.parse_rhs()
        then = self.parse_block()
        els = None
        if self.at("else"):
            self.i += 1
            if self.at("if"):
                self.enter(self.tokens[self.i])
                nested = self.parse_if()
                self.leave()
                els = ast.Block(stmts=(nested,), pos=nested.pos)
            else:
                els = self.parse_block()
        return ast.If(cond=cond, then=then, els=els, pos=kw.pos)

    def parse_for(self) -> ast.For:
        kw = self.expect("for", "to start a for statement")
        var = self.expect_ident("as the loop variable")
        self.expect("in", "after the loop variable")
        iterable = self.parse_expr()
        body = self.parse_block()
        return ast.For(var=var.text, iterable=iterable, body=body, pos=kw.pos)

    def parse_choice(self) -> ast.Choice:
        kw = self.expect("choice", "to start a choice statement")
        blocks = [self.parse_block()]
        while self.at(","):
            self.i += 1
            self.skip_newlines()
            blocks.append(self.parse_block())
        if len(blocks) < 2:
            raise ParseError("choice needs at least two blocks", kw.pos)
        return ast.Choice(blocks=tuple(blocks), pos=kw.pos)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """A whole expression; a parenthesized one is part of the enclosing tree."""
        start = self.i
        expr = self.parse_binary(0)
        # Every node takes a token, so a shorter expression cannot be too deep.
        if self.i - start > _MAX_EXPR_DEPTH and _too_deep(expr):
            pos = self.tokens[start].pos
            raise ParseError(f"expression is deeper than {_MAX_EXPR_DEPTH} levels", pos)
        return expr

    def parse_binary(self, min_level: int) -> ast.Expr:
        """Operators of ast.BINARY_LEVELS[min_level] and tighter, by precedence
        climbing.  `->` associates to the right and opens a nesting level; `||`
        and `&&` associate to the left; `==` and `!=` take unary operands, so a
        second one is left for the caller to reject."""
        left = self.parse_unary()
        top = _EQUALITY  # the tightest level that may follow `left`: see the docstring
        while True:
            op = self.tokens[self.i]
            level = _LEVELS.get(op.text, -1)
            if not min_level <= level <= top:
                return left
            self.i += 1
            if level == 0:  # "->"
                self.enter(op)
                right = self.parse_binary(0)
                self.leave()
                return ast.Binary(op="->", left=left, right=right, pos=op.pos)
            right = self.parse_unary() if level == _EQUALITY else self.parse_binary(level + 1)
            left = ast.Binary(op=op.text, left=left, right=right, pos=op.pos)
            top = _EQUALITY - 1

    def parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.i]
        text = tok.text
        if text == "!" or (self.ltl and (text == "G" or text == "F")
                           and _starts_operand(self.tokens[self.i + 1])):
            self.i += 1
            self.enter(tok)
            operand = self.parse_unary()
            self.leave()
            if text == "!":
                return ast.Unary(op="!", operand=operand, pos=tok.pos)
            return ast.Temporal(op=text, operand=operand, pos=tok.pos)
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.i]
        if tok.kind is TokenKind.IDENT:
            self.i += 1
            if self.tokens[self.i].text == ".":
                self.i += 1
                member = self.expect_ident("after '.'")
                return ast.Qualified(instance=tok.text, variable=member.text, pos=tok.pos)
            return ast.Name(ident=tok.text, pos=tok.pos)
        text = tok.text
        if text == "(":
            self.i += 1
            self.enter(tok)
            self.skip_newlines()
            inner = self.parse_binary(0)
            self.skip_newlines()
            self.expect(")", "to close the parenthesized expression")
            self.leave()
            return inner
        if text == "true" or text == "false":
            self.i += 1
            return ast.BoolLit(value=text == "true", pos=tok.pos)
        raise ParseError(f"expected an expression, found {tok}", tok.pos)


def parse_model(tokens: list[Token]) -> ast.ModelAST:
    """Parse a full token list (as produced by tokenize) into a ModelAST."""
    if not tokens or tokens[-1].kind is not TokenKind.EOF:
        raise ParseError("token stream does not end in EOF", Pos(0, 0))
    return _Parser(tokens).parse_model()


def parse_source(source: str) -> ast.ModelAST:
    return parse_model(tokenize(source))
