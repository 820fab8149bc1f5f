"""Concrete grammar and recursive-descent parser for While source programs.

Statement grammar, loosest operator first:

    stmt    ::= seq ('par' seq)*                  -- left-associative
    seq     ::= simple (';' simple)*              -- right-associative
    simple  ::= 'var' type NAME ':=' expr
              | NAME ':=' expr
              | 'if' expr 'then' simple 'else' simple
              | 'while' expr 'do' simple
              | 'begin' decls procs body 'end'
              | 'call' NAME
              | 'protect' stmt 'end'
              | '{' stmt '}'
    proc    ::= 'proc' NAME 'is' simple

Inside a begin block the variable-declaration and procedure-declaration
sections are read greedily, with ';' optional at the section boundaries;
when every item turns out to be a declaration, the last one is the body.
A procedure declaration is accepted only in a block's procedure section;
the grammar rejects it anywhere else, reporting it at its 'proc' token.

Expressions are read by precedence climbing over `syntax.OPERATORS`,
which gives each binary operator's precedence, associativity and operand
and result sorts; 'not' binds tighter than every binary operator and takes
a boolean. A right-hand side that is a bare variable or arithmetic
expression parses as arithmetic; true/false/not/and and comparisons mark it
boolean. An expression is read straight into the syntax nodes, and its
sorts are checked once it is read, root first and left to right: the first
node of the wrong sort is the one reported.

The scanner is one regular expression, run over the whole source before
parsing, so a bad character is reported before any syntax error. Each of
its matches is the run of blanks before a token and the token itself, so
blanks cost no match of their own, and each token is built as a plain
tuple of the `Token` class, without the named tuple's Python-level
constructor. Unicode
spellings of the operators (≤ ∧ ¬ −) are accepted, but numerals are up to
4300 ASCII digits and names ASCII letters, digits and '_'. Comments run
from '//' to the end of the line.

The runtime-only keywords (beginscope, endscope, protected) are reserved
and rejected in source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .syntax import (
    BOOL, MAX_NUMERAL_DIGITS, NAT, NOT_LEVEL, OPERATORS, Begin, Call, Decl,
    Expr, FalseLit, If, NatLit, Not, Par, ProcDecl, Protect, Seq, Stmt,
    TrueLit, TypeName, Update, Var, While,
)

RUNTIME_KEYWORDS = {"beginscope", "endscope", "protected"}

# The runtime-only keywords are reserved so they can never appear in source.
KEYWORDS = {
    "var", "if", "then", "else", "while", "do", "begin", "end", "proc",
    "is", "call", "par", "protect", "true", "false", "void", "and", "not",
    "Nat", "Bool", "Cmd",
} | RUNTIME_KEYWORDS

_ALIASES = {"≤": "<=", "∧": "and", "¬": "not", "−": "-"}

_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Each match is a run of blanks and then one token, or the end of input.
# A blank is a character `str.isspace` accepts, '\n' excepted; each
# character but '\n' is a column. Alternatives are tried in order. `bad`
# takes any other non-blank character, so the blanks never backtrack into
# it, and `end` takes blanks at the end of input, so finditer never
# searches through them.
_TOKEN = re.compile(r"""
    [^\S\n]*
    (?: (?P<word>""" + _WORD.pattern + r""")
      | (?P<symbol>:=|<=|[;{}()+*=-])
      | (?P<number>[0-9]+)
      | (?P<newline>\n)
      | (?P<comment>//[^\n]*)
      | (?P<alias>[≤∧¬−])
      | (?P<bad>\S)
      | (?P<end>\Z)
    )
""", re.VERBOSE)


def is_identifier(name: str) -> bool:
    """Whether `name` is one identifier token: a word that is no keyword."""
    return _WORD.fullmatch(name) is not None and name not in KEYWORDS


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int,
                 expected: frozenset[str] = frozenset()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(str(self))

    def __str__(self) -> str:
        text = f"parse error at {self.line}:{self.column}: {self.message}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        return text


class Token(NamedTuple):
    kind: str  # "keyword" | "ident" | "number" | "symbol" | "eof"
    text: str
    line: int
    column: int


# What Token._make does, without its Python-level call.
_new_tuple = tuple.__new__


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
            continue
        if kind == "comment" or kind == "end":
            continue
        text = match.group(kind)
        col = match.start(kind) - line_start + 1
        if kind == "word":
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "number" and len(text) > MAX_NUMERAL_DIGITS:
            raise ParseError(f"numeral over {MAX_NUMERAL_DIGITS} digits", line, col)
        elif kind == "alias":
            text = _ALIASES[text]
            kind = "keyword" if text.isalpha() else "symbol"
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        tokens.append(_new_tuple(Token, (kind, text, line, col)))
    # A comment does not advance the column, so end of input sits where a
    # comment on the last line starts: its first '//', since any other '/'
    # is a bad character.
    column = len(source[line_start:].partition("//")[0]) + 1
    tokens.append(Token("eof", "", line, column))
    return tokens


# A token's text alone tells a keyword or a symbol: no name is spelt as one.
_BY_SYMBOL = {row[0]: cls for cls, row in OPERATORS.items()}
# The sort an expression's root gives it; a variable has none of its own.
_SORTS = {cls: row[5] for cls, row in OPERATORS.items()} | {
    NatLit: NAT, TrueLit: BOOL, FalseLit: BOOL, Not: BOOL}


@dataclass
class _Parser:
    tokens: list[Token]
    pos: int = field(default=0)
    # The token of each expression node a sort error can point at, keyed by
    # id(); each entry holds its node, so no other object can take the id.
    positions: dict[int, tuple[Expr, Token]] = field(default_factory=dict)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        if self.at(kind, text):
            return self.advance()
        shown = text or ("identifier" if kind == "ident" else kind)
        self.fail(frozenset({shown}))

    def fail(self, expected: frozenset[str], message: str | None = None):
        tok = self.peek()
        if message is None:
            shown = tok.text if tok.kind != "eof" else "end of input"
            message = f"unexpected {shown!r}"
            if tok.kind == "keyword" and tok.text in RUNTIME_KEYWORDS:
                message = f"runtime-only keyword {tok.text!r} is not allowed in source"
        raise ParseError(message, tok.line, tok.column, expected)

    # -- statements ---------------------------------------------------------

    def parse_program(self) -> Stmt:
        stmt = self.parse_stmt()
        if not self.at("eof"):
            self.fail(frozenset({";", "par", "end of input"}))
        return stmt

    def parse_stmt(self) -> Stmt:
        stmt = self.parse_seq()
        while self.at("keyword", "par"):
            self.advance()
            stmt = Par(stmt, self.parse_seq())
        return stmt

    def parse_seq(self) -> Stmt:
        # A loop, not recursion: a long straight line costs no stack.
        stmts = [self.parse_simple()]
        while self.at("symbol", ";"):
            self.advance()
            stmts.append(self.parse_simple())
        stmt = stmts.pop()
        while stmts:
            stmt = Seq(stmts.pop(), stmt)
        return stmt

    def parse_simple(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "keyword":
            match tok.text:
                case "var":
                    return self.parse_decl()
                case "if":
                    self.advance()
                    cond = self.parse_expr(BOOL)
                    self.expect("keyword", "then")
                    then_branch = self.parse_simple()
                    self.expect("keyword", "else")
                    return If(cond, then_branch, self.parse_simple())
                case "while":
                    self.advance()
                    cond = self.parse_expr(BOOL)
                    self.expect("keyword", "do")
                    return While(cond, self.parse_simple())
                case "begin":
                    return self.parse_begin()
                case "proc":
                    name = self.parse_proc().name
                    raise ParseError(
                        f"procedure declaration {name!r} outside a begin block",
                        tok.line, tok.column)
                case "call":
                    self.advance()
                    return Call(self.expect("ident").text)
                case "protect":
                    self.advance()
                    body = self.parse_stmt()
                    self.expect("keyword", "end")
                    return Protect(body)
        if tok.kind == "symbol" and tok.text == "{":
            self.advance()
            inner = self.parse_stmt()
            self.expect("symbol", "}")
            return inner
        if tok.kind == "ident":
            name = self.advance().text
            self.expect("symbol", ":=")
            return Update(name, self.parse_expr())
        self.fail(frozenset({"var", "if", "while", "begin", "call",
                             "protect", "{", "identifier"}))

    def parse_decl(self) -> Decl:
        self.expect("keyword", "var")
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("Nat", "Bool", "Cmd"):
            self.advance()
            type_name = TypeName(tok.text)
        else:
            self.fail(frozenset({"Nat", "Bool", "Cmd"}))
        name = self.expect("ident").text
        self.expect("symbol", ":=")
        return Decl(type_name, name, self.parse_expr())

    def parse_proc(self) -> ProcDecl:
        self.expect("keyword", "proc")
        name = self.expect("ident").text
        self.expect("keyword", "is")
        return ProcDecl(name, self.parse_simple())

    def parse_begin(self) -> Begin:
        self.expect("keyword", "begin")
        decls: list[Decl] = []
        while self.at("keyword", "var"):
            decls.append(self.parse_decl())
            if self.at("symbol", ";"):
                self.advance()
        procs: list[ProcDecl] = []
        while self.at("keyword", "proc"):
            procs.append(self.parse_proc())
            if self.at("symbol", ";"):
                self.advance()
        if self.at("keyword", "end"):
            # Every item was a declaration; the grammar still requires a
            # body, so the final variable declaration is it.
            if procs or not decls:
                self.fail(frozenset({"statement"}),
                          "begin block has no body statement")
            body: Stmt = decls.pop()
        else:
            body = self.parse_stmt()
        self.expect("keyword", "end")
        return Begin(tuple(decls), tuple(procs), body)

    # -- expressions --------------------------------------------------------

    def parse_expr(self, sort: TypeName | None = None) -> Expr:
        """An expression of `sort`; by default the right-hand side of :=,
        boolean or arithmetic, told apart by shape."""
        e = self.parse_binary(0)
        self.check_sort(e, sort or _SORTS.get(type(e)))
        return e

    def placed(self, e: Expr, tok: Token) -> Expr:
        self.positions[id(e)] = (e, tok)
        return e

    def parse_binary(self, level: int) -> Expr:
        """Precedence climbing: the longest expression from here whose
        operators outside parentheses are at `level` or tighter."""
        left, left_level = self.parse_unary(), NOT_LEVEL
        while (cls := _BY_SYMBOL.get(self.peek().text)) is not None:
            _, own, left_operand, right_operand, _, _ = OPERATORS[cls]
            if own < level or left_operand > left_level:
                break
            tok = self.advance()
            left = self.placed(cls(left, self.parse_binary(right_operand)), tok)
            left_level = own
        return left

    def parse_unary(self) -> Expr:
        # Each literal is a fresh node, so each has its own position.
        tok = self.advance()
        text = tok.text
        if tok.kind == "ident":
            return Var(text)
        if tok.kind == "number":
            return self.placed(NatLit(int(text)), tok)
        if text == "not":
            return self.placed(Not(self.parse_unary()), tok)
        if text == "true" or text == "false":
            return self.placed(TrueLit() if text == "true" else FalseLit(), tok)
        if text == "(":
            inner = self.parse_binary(0)
            self.expect("symbol", ")")
            return inner
        self.pos -= 1
        self.fail(frozenset({"number", "identifier", "true", "false", "("}))

    def check_sort(self, e: Expr, sort: TypeName | None) -> None:
        """Raise at the first node of `e`, root first and left to right, whose
        sort is not the one its position takes; a variable takes either."""
        own = _SORTS.get(type(e))
        if own is None:
            return
        if own is not sort:
            tok = self.positions[id(e)][1]
            message = ("arithmetic expression in boolean position"
                       if sort is BOOL
                       else "boolean expression in arithmetic position")
            raise ParseError(message, tok.line, tok.column)
        row = OPERATORS.get(type(e))
        if row is not None:
            self.check_sort(e.left, row[4])
            self.check_sort(e.right, row[4])
        elif type(e) is Not:
            self.check_sort(e.operand, BOOL)


def parse_program(text: str) -> Stmt:
    """Parse a source program; raises ParseError with position and expectations."""
    return _Parser(tokenize(text)).parse_program()
