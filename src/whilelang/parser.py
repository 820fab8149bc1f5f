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

The parser reads the source as a list of token texts, taken by one
`findall`: each match skips the blanks, line ends and comments before a
token and keeps the token's text, and "" stands for end of input. A
token's kind follows from its text, since no name or numeral is spelt as a
keyword or a symbol, so the parser compares texts and builds no token.
Only the distinct texts are checked: a character that starts no token, or
a numeral over 4300 digits, sends the source to `tokenize`, which reports
it, so a bad character is reported before any syntax error. Positions are
found only for a diagnostic: the parser reports an error at a token's
index, and `tokenize`, which runs the same scan and counts lines, gives
that token's line and column. Unicode spellings of the operators
(≤ ∧ ¬ −) are accepted, but numerals are up to 4300 ASCII digits and
names ASCII letters, digits and '_'. Comments run from '//' to the end of
the line.

The runtime-only keywords (beginscope, endscope, protected) are reserved
and rejected in source.
"""

from __future__ import annotations

import re
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

_SYMBOLS = (":=", "<=", ";", "{", "}", "(", ")", "+", "-", "*", "=")

_ALIASES = {"≤": "<=", "∧": "and", "¬": "not", "−": "-"}

# The text of every keyword and symbol, and "" for end of input; any other
# text the scan takes is a name, a numeral, an alias or a bad character.
_SPELT = KEYWORDS | set(_SYMBOLS) | {""}

_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# The one scan of source text. Each match skips blanks (characters
# `str.isspace` accepts), line ends and comments, then takes one token's
# text: a word, a symbol, a numeral, an alias, a character that starts no
# token, or "" at end of input. No two tokens start with the same
# character, so only the last two alternatives need their place.
_TEXT = re.compile(r"\s*(?://[^\n]*\s*)*(" + "|".join([
    _WORD.pattern, *map(re.escape, _SYMBOLS), "[0-9]+",
    "[" + "".join(_ALIASES) + "]", r"\S", r"\Z"]) + ")")

_NAME_OR_NUMERAL = re.compile(
    _WORD.pattern + f"|[0-9]{{1,{MAX_NUMERAL_DIGITS}}}")


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


def tokenize(source: str) -> list[Token]:
    """Each token of `source` with its kind, line and column, then end of
    input; raises at the first bad character or numeral over the bound."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TEXT.finditer(source):
        start = match.start(1)
        breaks = source.count("\n", match.start(), start)
        if breaks:
            line += breaks
            line_start = source.rindex("\n", match.start(), start) + 1
        text = match[1]
        if not text:
            break
        col = start - line_start + 1
        text = _ALIASES.get(text, text)
        if text in KEYWORDS:
            kind = "keyword"
        elif text in _SPELT:
            kind = "symbol"
        elif _NAME_OR_NUMERAL.fullmatch(text) is not None:
            kind = "number" if text.isdigit() else "ident"
        elif len(text) > MAX_NUMERAL_DIGITS:
            raise ParseError(f"numeral over {MAX_NUMERAL_DIGITS} digits", line, col)
        else:
            raise ParseError(f"unexpected character {text!r}", line, col)
        tokens.append(Token(kind, text, line, col))
    # A comment does not advance the column, so end of input sits where a
    # comment on the last line starts: its first '//', since any other '/'
    # is a bad character.
    column = len(source[line_start:].partition("//")[0]) + 1
    tokens.append(Token("eof", "", line, column))
    return tokens


def _texts(source: str) -> list[str] | None:
    """The text of each token `tokenize` gives for `source`, "" for end of
    input last; None where `tokenize` reports an error."""
    texts = _TEXT.findall(source)
    # After blanks or a comment at the end, end of input matches twice: as
    # the text of the match that skips them, and as an empty match after it.
    if len(texts) > 1 and not texts[-2]:
        texts.pop()
    distinct = set(texts)
    if not all(map(_NAME_OR_NUMERAL.fullmatch,
                   distinct.difference(_SPELT, _ALIASES))):
        return None
    if distinct.isdisjoint(_ALIASES):
        return texts
    return [_ALIASES.get(text, text) for text in texts]


# A token's text alone tells a keyword or a symbol: no name is spelt as one.
_BY_SYMBOL = {row[0]: cls for cls, row in OPERATORS.items()}
# The sort an expression's root gives it; a variable has none of its own.
_SORTS = {cls: row[5] for cls, row in OPERATORS.items()} | {
    NatLit: NAT, TrueLit: BOOL, FalseLit: BOOL, Not: BOOL}


class _Parser:
    """Reads the texts `_texts` gives for `source`."""

    def __init__(self, source: str, texts: list[str]) -> None:
        self.source = source
        self.texts = texts
        self.pos = 0
        # The token index of each expression node a sort error can point
        # at, keyed by id(); each entry holds its node, so no other object
        # can take the id.
        self.positions: dict[int, tuple[Expr, int]] = {}

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            self.fail(frozenset({text}))
        self.pos += 1

    def name(self) -> str:
        text = self.texts[self.pos]
        if text in _SPELT or text.isdigit():
            self.fail(frozenset({"identifier"}))
        self.pos += 1
        return text

    def fail(self, expected: frozenset[str], message: str | None = None):
        text = self.texts[self.pos]
        if message is None:
            message = f"unexpected {text or 'end of input'!r}"
            if text in RUNTIME_KEYWORDS:
                message = f"runtime-only keyword {text!r} is not allowed in source"
        raise self.error(self.pos, message, expected)

    def error(self, index: int, message: str,
              expected: frozenset[str] = frozenset()) -> ParseError:
        """The error at the token of `index`, placed by `tokenize`."""
        tok = tokenize(self.source)[index]
        return ParseError(message, tok.line, tok.column, expected)

    # -- statements ---------------------------------------------------------

    def parse_program(self) -> Stmt:
        stmt = self.parse_stmt()
        if self.texts[self.pos]:
            self.fail(frozenset({";", "par", "end of input"}))
        return stmt

    def parse_stmt(self) -> Stmt:
        stmt = self.parse_seq()
        while self.at("par"):
            self.pos += 1
            stmt = Par(stmt, self.parse_seq())
        return stmt

    def parse_seq(self) -> Stmt:
        # A loop, not recursion: a long straight line costs no stack.
        stmts = [self.parse_simple()]
        while self.at(";"):
            self.pos += 1
            stmts.append(self.parse_simple())
        stmt = stmts.pop()
        while stmts:
            stmt = Seq(stmts.pop(), stmt)
        return stmt

    def parse_simple(self) -> Stmt:
        text = self.texts[self.pos]
        if text not in _SPELT and not text.isdigit():
            self.pos += 1
            self.expect(":=")
            return Update(text, self.parse_expr())
        match text:
            case "var":
                return self.parse_decl()
            case "if":
                self.pos += 1
                cond = self.parse_expr(BOOL)
                self.expect("then")
                then_branch = self.parse_simple()
                self.expect("else")
                return If(cond, then_branch, self.parse_simple())
            case "while":
                self.pos += 1
                cond = self.parse_expr(BOOL)
                self.expect("do")
                return While(cond, self.parse_simple())
            case "begin":
                return self.parse_begin()
            case "proc":
                index = self.pos
                name = self.parse_proc().name
                raise self.error(
                    index, f"procedure declaration {name!r} outside a begin block")
            case "call":
                self.pos += 1
                return Call(self.name())
            case "protect":
                self.pos += 1
                body = self.parse_stmt()
                self.expect("end")
                return Protect(body)
            case "{":
                self.pos += 1
                inner = self.parse_stmt()
                self.expect("}")
                return inner
        self.fail(frozenset({"var", "if", "while", "begin", "call",
                             "protect", "{", "identifier"}))

    def parse_decl(self) -> Decl:
        self.expect("var")
        text = self.texts[self.pos]
        if text not in ("Nat", "Bool", "Cmd"):
            self.fail(frozenset({"Nat", "Bool", "Cmd"}))
        self.pos += 1
        name = self.name()
        self.expect(":=")
        return Decl(TypeName(text), name, self.parse_expr())

    def parse_proc(self) -> ProcDecl:
        self.expect("proc")
        name = self.name()
        self.expect("is")
        return ProcDecl(name, self.parse_simple())

    def parse_begin(self) -> Begin:
        self.expect("begin")
        decls: list[Decl] = []
        while self.at("var"):
            decls.append(self.parse_decl())
            if self.at(";"):
                self.pos += 1
        procs: list[ProcDecl] = []
        while self.at("proc"):
            procs.append(self.parse_proc())
            if self.at(";"):
                self.pos += 1
        if self.at("end"):
            # Every item was a declaration; the grammar still requires a
            # body, so the final variable declaration is it.
            if procs or not decls:
                self.fail(frozenset({"statement"}),
                          "begin block has no body statement")
            body: Stmt = decls.pop()
        else:
            body = self.parse_stmt()
        self.expect("end")
        return Begin(tuple(decls), tuple(procs), body)

    # -- expressions --------------------------------------------------------

    def parse_expr(self, sort: TypeName | None = None) -> Expr:
        """An expression of `sort`; by default the right-hand side of :=,
        boolean or arithmetic, told apart by shape."""
        e = self.parse_binary(0)
        self.check_sort(e, sort or _SORTS.get(type(e)))
        return e

    def placed(self, e: Expr, index: int) -> Expr:
        self.positions[id(e)] = (e, index)
        return e

    def parse_binary(self, level: int) -> Expr:
        """Precedence climbing: the longest expression from here whose
        operators outside parentheses are at `level` or tighter."""
        left, left_level = self.parse_unary(), NOT_LEVEL
        while (cls := _BY_SYMBOL.get(self.texts[self.pos])) is not None:
            _, own, left_operand, right_operand, _, _ = OPERATORS[cls]
            if own < level or left_operand > left_level:
                break
            index = self.pos
            self.pos = index + 1
            left = self.placed(cls(left, self.parse_binary(right_operand)), index)
            left_level = own
        return left

    def parse_unary(self) -> Expr:
        # Each literal is a fresh node, so each has its own position.
        index = self.pos
        text = self.texts[index]
        self.pos = index + 1
        if text not in _SPELT:
            if text.isdigit():
                return self.placed(NatLit(int(text)), index)
            return Var(text)
        if text == "not":
            return self.placed(Not(self.parse_unary()), index)
        if text == "true" or text == "false":
            return self.placed(TrueLit() if text == "true" else FalseLit(), index)
        if text == "(":
            inner = self.parse_binary(0)
            self.expect(")")
            return inner
        self.pos = index
        self.fail(frozenset({"number", "identifier", "true", "false", "("}))

    def check_sort(self, e: Expr, sort: TypeName | None) -> None:
        """Raise at the first node of `e`, root first and left to right, whose
        sort is not the one its position takes; a variable takes either."""
        own = _SORTS.get(type(e))
        if own is None:
            return
        if own is not sort:
            message = ("arithmetic expression in boolean position"
                       if sort is BOOL
                       else "boolean expression in arithmetic position")
            raise self.error(self.positions[id(e)][1], message)
        row = OPERATORS.get(type(e))
        if row is not None:
            self.check_sort(e.left, row[4])
            self.check_sort(e.right, row[4])
        elif type(e) is Not:
            self.check_sort(e.operand, BOOL)


def parse_program(text: str) -> Stmt:
    """Parse a source program; raises ParseError with position and expectations."""
    texts = _texts(text)
    if texts is None:
        tokenize(text)  # raises at the bad character or the long numeral
    return _Parser(text, texts).parse_program()
