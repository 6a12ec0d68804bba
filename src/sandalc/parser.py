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
  parser's own recursion, about seven frames per parenthesis.
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
_KEYWORD_OR_PUNCT = (TokenKind.KEYWORD, TokenKind.PUNCT)


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

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        """Whether the current token is a keyword or punctuation spelled `text`."""
        tok = self.tokens[self.i]
        return tok.text == text and tok.kind in _KEYWORD_OR_PUNCT

    def at_ident(self) -> bool:
        return self.tokens[self.i].kind is TokenKind.IDENT

    def expect(self, text: str, context: str) -> Token:
        if not self.at(text):
            raise ParseError(f"expected {text!r} {context}, found {self.cur}", self.cur.pos)
        return self.advance()

    def expect_ident(self, context: str) -> Token:
        if not self.at_ident():
            raise ParseError(f"expected identifier {context}, found {self.cur}", self.cur.pos)
        return self.advance()

    def enter(self, tok: Token) -> None:
        """Open one nesting level at `tok`; close it with `leave`."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting is deeper than {_MAX_NESTING} levels", tok.pos)
        self.depth += 1

    def leave(self) -> None:
        self.depth -= 1

    def skip_newlines(self) -> None:
        """Skip newline-inserted separators (used inside comma lists)."""
        while self.cur.synthetic and self.cur.text == ";":
            self.advance()

    def skip_separators(self) -> None:
        while self.at(";"):
            self.advance()

    # -- top level ----------------------------------------------------------

    def parse_model(self) -> ast.ModelAST:
        data_decls: list[ast.DataDecl] = []
        procs: list[ast.ProcTemplate] = []
        init_entries: tuple[ast.InitEntry, ...] | None = None
        ltl_specs: list[ast.LtlSpec] = []
        while True:
            self.skip_separators()
            if self.cur.kind is TokenKind.EOF:
                break
            if self.at("data"):
                data_decls.append(self.parse_data())
            elif self.at("proc"):
                procs.append(self.parse_proc())
            elif self.at("init"):
                if init_entries is not None:
                    raise ParseError("duplicate init-block (a model has exactly one)", self.cur.pos)
                init_entries = self.parse_init()
            elif self.at("ltl"):
                ltl_specs.append(self.parse_ltl())
            else:
                raise ParseError(
                    f"expected 'data', 'proc', 'init' or 'ltl' at top level, found {self.cur}",
                    self.cur.pos,
                )
        if init_entries is None:
            raise ParseError("model has no init-block", self.cur.pos)
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
        while self.cur.kind is TokenKind.FAULT_MARKER:
            marker = self.advance()
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
        if self.at("["):
            open_tok = self.advance()
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
        while not self.at(closer):
            items.append(parse_item())
            self.skip_newlines()
            if self.at(","):
                self.advance()
                self.skip_newlines()
            elif not self.at(closer):
                raise ParseError(f"expected ',' or {closer!r}, found {self.cur}", self.cur.pos)
        return items

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> ast.TypeNode:
        tok = self.cur
        if self.at("["):
            self.advance()
            self.expect("]", "after '[' in a channel-array type")
            elem = self.parse_chan_type()
            return ast.ChanArrayTypeNode(elem=elem, pos=tok.pos)
        if self.at("channel"):
            return self.parse_chan_type()
        if self.at("bool"):
            self.advance()
            return ast.BoolTypeNode(pos=tok.pos)
        if self.at_ident():
            self.advance()
            return ast.NamedTypeNode(name=tok.text, pos=tok.pos)
        raise ParseError(f"expected a type, found {tok}", tok.pos)

    def parse_chan_type(self) -> ast.ChanTypeNode:
        kw = self.expect("channel", "to start a channel type")
        capacity: int | None = None
        if self.at("["):
            self.advance()
            num = self.cur
            if num.kind is not TokenKind.NUMBER:
                raise ParseError(f"expected a buffer capacity, found {num}", num.pos)
            self.advance()
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
        while not self.at("}"):
            stmts.append(self.parse_stmt())
            if self.at(";"):
                self.skip_separators()
            elif not self.at("}"):
                raise ParseError(
                    f"expected ';', newline or '}}' after a statement, found {self.cur}",
                    self.cur.pos,
                )
        self.expect("}", "to close the block")
        self.leave()
        return ast.Block(stmts=tuple(stmts), pos=open_tok.pos)

    def parse_stmt(self) -> ast.Stmt:
        tok = self.cur
        if self.at("var"):
            return self.parse_var_decl()
        if self.at("if"):
            return self.parse_if()
        if self.at("for"):
            return self.parse_for()
        if self.at("choice"):
            return self.parse_choice()
        if self.at("send"):
            self.advance()
            chan, rest = self.parse_messaging_args(values=True)
            if not rest:
                raise ParseError("send needs at least one value after the channel", tok.pos)
            return ast.Send(channel=chan, values=tuple(rest), pos=tok.pos)
        if self.at("recv") or self.at("peek"):
            form = self.advance().text
            chan, names = self.parse_messaging_args(values=False)
            if not names:
                raise ParseError(f"{form} needs at least one target variable", tok.pos)
            return ast.Recv(form=form, channel=chan, targets=tuple(names), pos=tok.pos)
        if self.at_ident() and self.peek().text == "=":
            name = self.advance()
            self.expect("=", "in assignment")
            value = self.parse_rhs()
            return ast.Assign(name=name.text, value=value, pos=name.pos)
        expr = self.parse_expr()
        return ast.ExprStmt(expr=expr, pos=tok.pos)

    def peek(self) -> Token:
        return self.tokens[min(self.i + 1, len(self.tokens) - 1)]

    def parse_var_decl(self) -> ast.VarDecl:
        kw = self.expect("var", "to start a variable declaration")
        name = self.expect_ident("as the variable name")
        ty = self.parse_type()
        init = None
        if self.at("="):
            self.advance()
            init = self.parse_rhs()
        return ast.VarDecl(name=name.text, type=ty, init=init, pos=kw.pos)

    def parse_rhs(self) -> ast.Expr:
        """Right-hand side of `=` or an if condition: a receive expression or an
        ordinary expression."""
        if self.at("timeout_recv") or self.at("nonblock_recv"):
            return self.parse_recv_expr()
        return self.parse_expr()

    def parse_recv_expr(self) -> ast.RecvExpr:
        form_tok = self.advance()
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
            self.advance()
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
            self.advance()
            if self.at("if"):
                self.enter(self.cur)
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
            self.advance()
            self.skip_newlines()
            blocks.append(self.parse_block())
        if len(blocks) < 2:
            raise ParseError("choice needs at least two blocks", kw.pos)
        return ast.Choice(blocks=tuple(blocks), pos=kw.pos)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """A whole expression; a parenthesized one is part of the enclosing tree."""
        start = self.cur
        expr = self.parse_binary(0)
        if _too_deep(expr):
            raise ParseError(f"expression is deeper than {_MAX_EXPR_DEPTH} levels", start.pos)
        return expr

    def parse_binary(self, level: int) -> ast.Expr:
        """Operators of ast.BINARY_LEVELS[level] and tighter; `->` opens a nesting level."""
        if level == len(ast.BINARY_LEVELS):
            return self.parse_unary()
        ops = ast.BINARY_LEVELS[level]
        left = self.parse_binary(level + 1)
        while self.tokens[self.i].text in ops:
            op = self.advance()
            if op.text == "->":
                self.enter(op)
                right = self.parse_binary(level)
                self.leave()
                return ast.Binary(op="->", left=left, right=right, pos=op.pos)
            right = self.parse_binary(level + 1)
            left = ast.Binary(op=op.text, left=left, right=right, pos=op.pos)
            if op.text in ("==", "!="):
                break
        return left

    def parse_unary(self) -> ast.Expr:
        if self.at("!") or (self.ltl and self.at_ident() and self.cur.text in ("G", "F")
                            and _starts_operand(self.peek())):
            op = self.advance()
            self.enter(op)
            operand = self.parse_unary()
            self.leave()
            if op.text == "!":
                return ast.Unary(op="!", operand=operand, pos=op.pos)
            return ast.Temporal(op=op.text, operand=operand, pos=op.pos)
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        tok = self.cur
        if self.at("("):
            self.enter(self.advance())
            self.skip_newlines()
            inner = self.parse_binary(0)
            self.skip_newlines()
            self.expect(")", "to close the parenthesized expression")
            self.leave()
            return inner
        if self.at("true") or self.at("false"):
            self.advance()
            return ast.BoolLit(value=tok.text == "true", pos=tok.pos)
        if self.at_ident():
            self.advance()
            if self.at("."):
                self.advance()
                member = self.expect_ident("after '.'")
                return ast.Qualified(instance=tok.text, variable=member.text, pos=tok.pos)
            return ast.Name(ident=tok.text, pos=tok.pos)
        raise ParseError(f"expected an expression, found {tok}", tok.pos)


def parse_model(tokens: list[Token]) -> ast.ModelAST:
    """Parse a full token list (as produced by tokenize) into a ModelAST."""
    if not tokens or tokens[-1].kind is not TokenKind.EOF:
        raise ParseError("token stream does not end in EOF", Pos(0, 0))
    return _Parser(tokens).parse_model()


def parse_source(source: str) -> ast.ModelAST:
    return parse_model(tokenize(source))
