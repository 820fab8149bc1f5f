"""Concrete grammar and recursive-descent parser for While source programs.

Statement grammar, loosest operator first:

    stmt    ::= seq ('par' seq)*                  -- left-associative
    seq     ::= simple (';' seq)?                 -- right-associative
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

Expressions: and < (= | <=) < (+ | -) < * < not < atom, with 'and' right-
associative and '+'/'-'/'*' left-associative. '=' and '<=' take arithmetic
operands; 'and'/'not' take boolean ones. A right-hand side that is a bare
variable or arithmetic expression parses as arithmetic; true/false/not/and
and comparisons mark it boolean. Unicode spellings of the operators
(≤ ∧ ¬ −) are accepted, but numerals are up to 4300 ASCII digits and names
ASCII letters, digits and '_'. Comments run from '//' to the end of the line.

The runtime-only keywords (beginscope, endscope, protected) are reserved
and rejected in source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    MAX_NUMERAL_DIGITS, Add, And, Begin, Call, Decl, Eq, Expr, FalseLit, If,
    Le, Mul, NatLit, Not, Par, ProcDecl, Protect, Seq, Stmt, Sub, TrueLit,
    TypeName, Update, Var, While,
)

KEYWORDS = {
    "var", "if", "then", "else", "while", "do", "begin", "end", "proc",
    "is", "call", "par", "protect", "true", "false", "void", "and", "not",
    "Nat", "Bool", "Cmd",
    # runtime-only, reserved so they can never appear in source
    "beginscope", "endscope", "protected",
}

RUNTIME_KEYWORDS = {"beginscope", "endscope", "protected"}

_SYMBOLS = (":=", "<=", ";", "{", "}", "(", ")", "+", "-", "*", "=")

_ALIASES = {"≤": "<=", "∧": "and", "¬": "not", "−": "-"}


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


@dataclass(frozen=True)
class Token:
    kind: str  # "keyword" | "ident" | "number" | "symbol" | "eof"
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch in _ALIASES:
            alias = _ALIASES[ch]
            kind = "keyword" if alias.isalpha() else "symbol"
            tokens.append(Token(kind, alias, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            if j - i > MAX_NUMERAL_DIGITS:
                raise ParseError(f"numeral over {MAX_NUMERAL_DIGITS} digits", line, col)
            tokens.append(Token("number", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() and ch.isascii():
            j = i
            while j < n and (source[j].isascii() and
                             (source[j].isalnum() or source[j] == "_")):
                j += 1
            word = source[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("symbol", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# Raw expression tree, classified into AExp/BExp after parsing.

@dataclass(frozen=True)
class _RNum:
    n: int
    line: int
    column: int


@dataclass(frozen=True)
class _RVar:
    name: str


@dataclass(frozen=True)
class _RBool:
    value: bool
    line: int
    column: int


@dataclass(frozen=True)
class _RBin:
    op: str
    left: "_Raw"
    right: "_Raw"
    line: int
    column: int


@dataclass(frozen=True)
class _RNot:
    operand: "_Raw"
    line: int
    column: int


_Raw = object

_ARITH_NODES = {"+": Add, "-": Sub, "*": Mul}
_CMP_NODES = {"=": Eq, "<=": Le}


@dataclass
class _Parser:
    tokens: list[Token]
    pos: int = field(default=0)

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
        first = self.parse_simple()
        if self.at("symbol", ";"):
            self.advance()
            return Seq(first, self.parse_seq())
        return first

    def parse_simple(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "keyword":
            match tok.text:
                case "var":
                    return self.parse_decl()
                case "if":
                    self.advance()
                    cond = self.parse_bexp()
                    self.expect("keyword", "then")
                    then_branch = self.parse_simple()
                    self.expect("keyword", "else")
                    return If(cond, then_branch, self.parse_simple())
                case "while":
                    self.advance()
                    cond = self.parse_bexp()
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

    def parse_expr(self) -> Expr:
        """Right-hand side of := — boolean or arithmetic, told apart by shape."""
        raw = self.parse_raw_and()
        if _raw_is_boolean(raw):
            return self.to_bexp(raw)
        return self.to_aexp(raw)

    def parse_bexp(self) -> Expr:
        return self.to_bexp(self.parse_raw_and())

    def parse_raw_and(self) -> _Raw:
        left = self.parse_raw_cmp()
        if self.at("keyword", "and"):
            tok = self.advance()
            return _RBin("and", left, self.parse_raw_and(), tok.line, tok.column)
        return left

    def parse_raw_cmp(self) -> _Raw:
        left = self.parse_raw_add()
        if self.at("symbol", "=") or self.at("symbol", "<="):
            tok = self.advance()
            return _RBin(tok.text, left, self.parse_raw_add(), tok.line, tok.column)
        return left

    def parse_raw_add(self) -> _Raw:
        left = self.parse_raw_mul()
        while self.at("symbol", "+") or self.at("symbol", "-"):
            tok = self.advance()
            left = _RBin(tok.text, left, self.parse_raw_mul(), tok.line, tok.column)
        return left

    def parse_raw_mul(self) -> _Raw:
        left = self.parse_raw_unary()
        while self.at("symbol", "*"):
            tok = self.advance()
            left = _RBin("*", left, self.parse_raw_unary(), tok.line, tok.column)
        return left

    def parse_raw_unary(self) -> _Raw:
        if self.at("keyword", "not"):
            tok = self.advance()
            return _RNot(self.parse_raw_unary(), tok.line, tok.column)
        return self.parse_raw_atom()

    def parse_raw_atom(self) -> _Raw:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return _RNum(int(tok.text), tok.line, tok.column)
        if tok.kind == "ident":
            self.advance()
            return _RVar(tok.text)
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return _RBool(tok.text == "true", tok.line, tok.column)
        if tok.kind == "symbol" and tok.text == "(":
            self.advance()
            inner = self.parse_raw_and()
            self.expect("symbol", ")")
            return inner
        self.fail(frozenset({"number", "identifier", "true", "false", "("}))

    def to_aexp(self, raw: _Raw) -> Expr:
        match raw:
            case _RNum(n):
                return NatLit(n)
            case _RVar(name):
                return Var(name)
            case _RBin(op, left, right, _, _) if op in _ARITH_NODES:
                return _ARITH_NODES[op](self.to_aexp(left), self.to_aexp(right))
            case _RBin(_, _, _, line, column) | _RNot(_, line, column) | \
                    _RBool(_, line, column):
                raise ParseError("boolean expression in arithmetic position",
                                 line, column)
        raise AssertionError(raw)

    def to_bexp(self, raw: _Raw) -> Expr:
        match raw:
            case _RBool(value):
                return TrueLit() if value else FalseLit()
            case _RVar(name):
                return Var(name)
            case _RBin("and", left, right, _, _):
                return And(self.to_bexp(left), self.to_bexp(right))
            case _RBin(op, left, right, _, _) if op in _CMP_NODES:
                return _CMP_NODES[op](self.to_aexp(left), self.to_aexp(right))
            case _RNot(operand, _, _):
                return Not(self.to_bexp(operand))
            case _RBin(_, _, _, line, column) | _RNum(_, line, column):
                raise ParseError("arithmetic expression in boolean position",
                                 line, column)
        raise AssertionError(raw)


def _raw_is_boolean(raw: _Raw) -> bool:
    match raw:
        case _RBool(_) | _RNot(_, _, _):
            return True
        case _RBin(op, _, _, _, _):
            return op in ("and", "=", "<=")
        case _:
            return False


def parse_program(text: str) -> Stmt:
    """Parse a source program; raises ParseError with position and expectations."""
    return _Parser(tokenize(text)).parse_program()
