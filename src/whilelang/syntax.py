"""Abstract syntax of the While language.

Three layers share one set of node classes:

* basic forms: arithmetic/boolean expressions, declarations, update,
  sequencing, if/while;
* extended forms: begin blocks with variable and procedure declaration
  sections, call, par, protect;
* runtime-only forms that reduction introduces and the concrete grammar
  never accepts: protected regions, beginscope/endscope markers, bare
  expressions and values in statement position, and the empty statement.

Values are the normal forms: the literals `n`, `true` and `false`, which
are expression nodes themselves, and `void` for a finished statement.

The module also defines evaluation contexts over statements, as paths of
(node, field) frames, and the `decompose`/`plug` pair that drives the
one-step reduction relation.

Every record of the package is declared with `record`: the nodes here,
the stores, configurations and steps, the typing judgments and
environments, and the traces, graphs and outcome sets. A record is a
frozen, slotted dataclass with no slot beyond its fields, whose
`__init__` stores each field through its slot's descriptor; equality,
hashing, `repr` and `match` are the dataclass's own.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, fields
from functools import cmp_to_key
from typing import Union, get_args


class TypeName(enum.Enum):
    NAT = "Nat"
    BOOL = "Bool"
    CMD = "Cmd"

    def __str__(self) -> str:
        return self.value


# Read as module names: a module-level read costs a tenth of a class
# attribute's.
NAT, BOOL, CMD = TypeName.NAT, TypeName.BOOL, TypeName.CMD


def record(cls: type) -> type:
    """Declare `cls` a record (see above). The stock frozen `__init__`
    stores each field through `object.__setattr__`, which costs more than
    half again as much; parameters, their order and defaults are the same."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    params, body, namespace = ["self"], [], {}
    for f in fields(cls):
        name = f.name
        params.append(name if f.default is MISSING
                      else f"{name}=_default_{name}")
        namespace[f"_default_{name}"] = f.default
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
        body.append(f"_set_{name}(self, {name})")
    exec(f"def __init__({', '.join(params)}):\n    "
         + ("\n    ".join(body) or "pass"), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


# ---------------------------------------------------------------------------
# Expressions
#
# `Var` belongs to both expression classes; which literals may fill a
# variable occurrence is decided by the hole it sits in (see hole_class).

@record
class NatLit:
    n: int


# The most digits a numeral may have, in source, in a store file or as a
# result: Python's default int/str conversion limit, so all print and parse.
MAX_NUMERAL_DIGITS = 4300


@record
class Var:
    name: str


@record
class Add:
    left: "AExp"
    right: "AExp"


@record
class Sub:
    left: "AExp"
    right: "AExp"


@record
class Mul:
    left: "AExp"
    right: "AExp"


@record
class TrueLit:
    pass


@record
class FalseLit:
    pass


@record
class Eq:
    left: "AExp"
    right: "AExp"


@record
class Le:
    left: "AExp"
    right: "AExp"


@record
class And:
    left: "BExp"
    right: "BExp"


@record
class Not:
    operand: "BExp"


AExp = Union[NatLit, Var, Add, Sub, Mul]
BExp = Union[TrueLit, FalseLit, Var, Eq, Le, And, Not]
Expr = Union[AExp, BExp]
EXPR_CLASSES: tuple[type, ...] = get_args(Expr)

TRUE = TrueLit()
FALSE = FalseLit()


# Literals are the expression normal forms; variables are not.
_LITERALS = frozenset({NatLit, TrueLit, FalseLit})
BOOL_LITERALS = (TrueLit, FalseLit)


# ---------------------------------------------------------------------------
# Values: the literals above, and `void` for a finished statement. A store
# binds names to values, and `ValStmt` holds one in statement position.

@record
class VoidV:
    pass


Value = Union[NatLit, TrueLit, FalseLit, VoidV]


def value_text(v: Value) -> str:
    return "void" if isinstance(v, VoidV) else _pp_expr(v, 0)


# ---------------------------------------------------------------------------
# Statements

@record
class Seq:
    first: "Stmt"
    second: "Stmt"


@record
class If:
    cond: BExp
    then_branch: "Stmt"
    else_branch: "Stmt"


@record
class While:
    cond: BExp
    body: "Stmt"


@record
class Decl:
    type_name: TypeName
    name: str
    rhs: Expr


@record
class Update:
    name: str
    rhs: Expr


@record
class ProcDecl:
    name: str
    body: "Stmt"


@record
class Begin:
    decls: tuple[Decl, ...]
    procs: tuple[ProcDecl, ...]
    body: "Stmt"


@record
class Call:
    name: str


@record
class Par:
    left: "Stmt"
    right: "Stmt"


@record
class Protect:
    body: "Stmt"


# Runtime-only statements.

@record
class Protected:
    body: "Stmt"


@record
class BeginScope:
    pass


@record
class EndScope:
    pass


@record
class ExprStmt:
    expr: Expr


@record
class ValStmt:
    value: Value


@record
class Empty:
    pass


Stmt = Union[
    Seq, If, While, Decl, Update, ProcDecl, Begin, Call, Par, Protect,
    Protected, BeginScope, EndScope, ExprStmt, ValStmt, Empty,
]

VOID_STMT = ValStmt(VoidV())


# ---------------------------------------------------------------------------
# Atomic-region predicate
#
# A statement guards an in-progress atomic region when its next step would
# happen inside a `protected` body: true for the acquired form, propagated
# through the head of a sequence and through both sides of a par. The
# unacquired `protect` form is interruptible; the lock is taken by the
# protect -> protected step itself.

def protected_pred(s: Stmt) -> bool:
    cls = type(s)
    if cls is Seq:
        return protected_pred(s.first)
    if cls is Par:
        return protected_pred(s.left) or protected_pred(s.right)
    return cls is Protected


# ---------------------------------------------------------------------------
# Symmetric form
#
# A side of a par tree may step exactly when no other side of the tree is
# in an atomic region, and a side that steps to a value leaves the tree,
# however the tree is shaped. So the sides form a multiset: permuting them
# changes neither the steps nor the leaves that follow.

def symmetric_form(s: Stmt) -> Stmt:
    """The representative of `s` up to the order of par sides: each
    maximal par tree in an evaluation position (the root, a sequence head,
    a `protected` body, or a side of such a tree) has its sides sorted by
    `_compare_terms` and nested to the left. A statement with no par on its
    evaluation spine is returned as it is."""
    cls = type(s)
    if cls is Seq:
        first = s.first
        if type(first) not in _SPINE:
            return s
        first = symmetric_form(first)
        return s if first is s.first else Seq(first, s.second)
    if cls is not Par:
        if cls is Protected:
            body = symmetric_form(s.body)
            return s if body is s.body else Protected(body)
        return s
    # The sides, left to right; `s` is kept when it already is the
    # representative: nested to the left, each side kept, sides in order.
    sides = []
    kept = True
    todo = [s]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is Par:
            right = node.right
            if type(right) is Par:
                kept = False
            todo += (right, node.left)
            continue
        if cls in _SPINE:
            side = symmetric_form(node)
            if side is not node:
                kept = False
                node = side
        sides.append(node)
    if kept:
        previous = sides[0]
        for side in sides[1:]:
            if _compare_terms(previous, side) > 0:
                break
            previous = side
        else:
            return s
    sides.sort(key=_TERM_KEY)
    tree = sides[0]
    for side in sides[1:]:
        tree = Par(tree, side)
    return tree


# The statements whose evaluation position may hold a par tree.
_SPINE = frozenset({Seq, Protected, Par})


def _compare_terms(a, b) -> int:
    """-1, 0 or 1 as term `a` sorts before, with or after `b`.

    Nodes of two classes sort by the class's place in `_TERM_RANK`, nodes
    of one class field by field in declaration order, names by text,
    numerals by value, tuples by length and then item by item. Only equal
    terms tie, and neither hashes nor ids are read, so the order is the
    same in every run. The walk stops at the first difference and skips
    subterms that the two terms share."""
    if a is b:
        return 0
    cls = type(a)
    if cls is not type(b):
        return -1 if _TERM_RANK[cls] < _TERM_RANK[type(b)] else 1
    if cls is str or cls is int:
        return 0 if a == b else -1 if a < b else 1
    if cls is tuple:
        if len(a) != len(b):
            return -1 if len(a) < len(b) else 1
        for x, y in zip(a, b):
            order = _compare_terms(x, y)
            if order:
                return order
        return 0
    if cls is TypeName:
        return _compare_terms(a.value, b.value)
    for field in cls.__slots__:
        order = _compare_terms(getattr(a, field), getattr(b, field))
        if order:
            return order
    return 0


# A sequence sorts after every other statement, so a side down to its last
# statement comes first, and takes the reduced relation's persistent step
# first, leaving the par sooner.
_TERM_RANK = {cls: rank for rank, cls in enumerate(
    (*EXPR_CLASSES, VoidV, *(c for c in get_args(Stmt) if c is not Seq), Seq))}
_TERM_KEY = cmp_to_key(_compare_terms)


# ---------------------------------------------------------------------------
# Pretty-printing
#
# Statement precedence, loosest first:  par  <  ;  <  simple.
# `;` is right-associative and binds tighter than `par`; `par` is
# left-associative.  if/while bodies and if branches are simple statements;
# `{ ... }` regroups.  Expression precedence is in OPERATORS below.

_PAR_LEVEL = 0
_SEQ_LEVEL = 1
_SIMPLE_LEVEL = 2


def pretty(s: Stmt) -> str:
    """Canonical concrete syntax for a statement, runtime forms included."""
    return Printer().stmt(s)


def pretty_expr(e: Expr) -> str:
    return _pp_expr(e, 0)


class Printer:
    """`pretty` for a series of statements that share subterms, such as the
    configurations of a trace: each shared node is printed once.

    Texts are memoized by node identity, never by structural hash, which
    would walk the whole term again. Each entry holds its node, so no other
    object can take the node's id while the entry lives. A `Par` or `Seq`
    is stored without its braces, which depend only on the caller's level,
    so one entry serves every level. `advance()` ends one statement of the
    series and drops every entry that neither it nor the statement before
    touched, so the memo holds about two statements' nodes. Without
    `advance()` it memoizes the whole series: `render_derivation` prints a
    derivation's subjects so, and each below one already printed is a hit.
    """

    def __init__(self) -> None:
        self._current: dict[int, tuple[Stmt, str]] = {}
        self._previous: dict[int, tuple[Stmt, str]] = {}

    def stmt(self, s: Stmt) -> str:
        return self._pp_stmt(s, _PAR_LEVEL)

    def advance(self) -> None:
        self._previous = self._current
        self._current = {}

    def _pp_stmt(self, s: Stmt, level: int) -> str:
        # Built inline rather than in a helper, so that each level of
        # nesting costs one stack frame.
        key = id(s)
        entry = self._current.get(key) or self._previous.get(key)
        cls = type(s)
        if entry is None:
            pp = self._pp_stmt
            if cls is Seq:
                text = f"{pp(s.first, _SIMPLE_LEVEL)}; {pp(s.second, _SEQ_LEVEL)}"
            elif cls is Update:
                text = f"{s.name} := {_pp_expr(s.rhs, 0)}"
            elif cls is Par:
                text = f"{pp(s.left, _PAR_LEVEL)} par {pp(s.right, _SEQ_LEVEL)}"
            elif cls is If:
                text = (f"if {_pp_expr(s.cond, 0)}"
                        f" then {pp(s.then_branch, _SIMPLE_LEVEL)}"
                        f" else {pp(s.else_branch, _SIMPLE_LEVEL)}")
            elif cls is While:
                text = f"while {_pp_expr(s.cond, 0)} do {pp(s.body, _SIMPLE_LEVEL)}"
            elif cls is ValStmt:
                text = value_text(s.value)
            elif cls is Decl:
                text = f"var {s.type_name.value} {s.name} := {_pp_expr(s.rhs, 0)}"
            elif cls is Call:
                text = f"call {s.name}"
            elif cls is Begin:
                text = self._pp_begin(s)
            elif cls is EndScope:
                text = "endscope"
            elif cls is ProcDecl:
                text = f"proc {s.name} is {pp(s.body, _SIMPLE_LEVEL)}"
            elif cls is BeginScope:
                text = "beginscope"
            elif cls is Empty:
                text = "ε"
            elif cls is Protected:
                text = f"protected {pp(s.body, _PAR_LEVEL)} end"
            elif cls is Protect:
                text = f"protect {pp(s.body, _PAR_LEVEL)} end"
            elif cls is ExprStmt:
                text = _pp_expr(s.expr, 0)
            else:
                raise TypeError(f"not a statement: {s!r}")
            entry = (s, text)
        self._current[key] = entry
        text = entry[1]
        if cls is Par and level > _PAR_LEVEL or cls is Seq and level > _SEQ_LEVEL:
            return "{ " + text + " }"
        return text

    def _pp_begin(self, s: Begin) -> str:
        # The declaration sections are read greedily, so a body whose leading
        # statement is a declaration must be braced or it would be absorbed
        # into the section before it on re-parse.
        body = s.body
        body_text = self._pp_stmt(body, _SEQ_LEVEL)
        if not s.procs and isinstance(body, Seq) and isinstance(body.first, Decl):
            body_text = "{ " + body_text + " }"
        items = [self._pp_stmt(d, _SIMPLE_LEVEL) for d in s.decls]
        items += [self._pp_stmt(p, _SIMPLE_LEVEL) for p in s.procs]
        items.append(body_text)
        return "begin " + "; ".join(items) + " end"


# The binary operators, read by the parser, the printer, the type checker
# and the stepper. Expression precedence, loosest binding first, at levels
# 0 to 4:
#
#     and  <  (=, <=)  <  (+, -)  <  *  <  not  <  atom
#
# Each row: (symbol, own level, left operand's level, right operand's level,
# operand type, result type). An operand read or printed at a level above
# its operator's takes that operator only in parentheses: `and` is
# right-associative, `+`, `-` and `*` left-associative, `=` and `<=`
# non-associative.
OPERATORS = {
    And: ("and", 0, 1, 0, BOOL, BOOL),
    Eq: ("=", 1, 2, 2, NAT, BOOL),
    Le: ("<=", 1, 2, 2, NAT, BOOL),
    Add: ("+", 2, 2, 3, NAT, NAT),
    Sub: ("-", 2, 2, 3, NAT, NAT),
    Mul: ("*", 3, 3, 4, NAT, NAT),
}
NOT_LEVEL = 4


def _pp_expr(e: Expr, level: int) -> str:
    cls = type(e)
    if cls is NatLit:
        return str(e.n)
    row = OPERATORS.get(cls)
    if row is not None:
        symbol, own, left, right, _, _ = row
        text = f"{_pp_expr(e.left, left)} {symbol} {_pp_expr(e.right, right)}"
        return f"({text})" if own < level else text
    if cls is Var:
        return e.name
    if cls is TrueLit:
        return "true"
    if cls is Not:
        # No operand position binds tighter than `not`: it is never braced.
        return "not " + _pp_expr(e.operand, NOT_LEVEL)
    if cls is FalseLit:
        return "false"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation contexts
#
# A context is a root-to-hole path of frames. A frame is a pair (node,
# field): the enclosing node as it stands in the term, and the name of its
# field that holds the hole ("first", "left", "right", "body", "cond",
# "rhs", "expr" or "operand"); `plug_frame` rebuilds the node with a new
# filler there. Descent into the right operand of a binary operator
# requires the left operand to be a value already, and a par side is
# entered only while the opposite side is not inside an atomic region.

Redex = Union[Stmt, Expr]

EvalContext = tuple[tuple[Redex, str], ...]

# The per-node functions here and in semantics dispatch on the exact class;
# each chain tests the classes in the order of their visit counts over the
# benchmark workloads, most visited first (see `visits` in BENCH_13.json).
_STMT_REDEXES = frozenset({While, Begin, Call, Protect, ProcDecl, BeginScope,
                           EndScope, Empty})


# The literals that may fill an operand of each class: those of the operand
# type in OPERATORS, and booleans under `not` or in a condition.
HOLES = {cls: (NatLit,) if row[4] is NAT else BOOL_LITERALS
         for cls, row in OPERATORS.items()}
HOLES[Not] = HOLES[If] = BOOL_LITERALS
_ANY_LITERAL = (NatLit, TrueLit, FalseLit)


def hole_class(ctx: EvalContext) -> tuple[type, ...]:
    """The literal classes that may fill the innermost hole of `ctx`, an
    expression position: numerals under an arithmetic operator or a
    comparison, booleans under `and`, `not` or a condition, any literal
    elsewhere. `void` fills no expression hole."""
    return HOLES.get(type(ctx[-1][0]), _ANY_LITERAL)


def decompose(s: Stmt) -> list[tuple[EvalContext, Redex]]:
    """All maximal decompositions of a runtime statement into context and redex.

    A redex is either an expression ready for one primitive step (a variable
    to resolve or an operator whose operands are values) or a statement some
    reduction rule matches directly. Normal forms and stuck dead ends yield
    an empty list; the caller tells them apart. A par node contributes one
    decomposition per schedulable side.
    """
    out: list[tuple[EvalContext, Redex]] = []
    _decompose_stmt(s, [], out)
    return out


def _decompose_stmt(s: Stmt, path: list[tuple[Redex, str]],
                    out: list[tuple[EvalContext, Redex]]) -> None:
    cls = type(s)
    if cls is Seq:
        first = s.first
        if type(first) is ValStmt:
            out.append((tuple(path), s))
        else:
            path.append((s, "first"))
            _decompose_stmt(first, path, out)
            path.pop()
    elif cls is Update or cls is Decl:
        rhs = s.rhs
        if type(rhs) in _LITERALS:
            out.append((tuple(path), s))
        else:
            path.append((s, "rhs"))
            _decompose_exp(rhs, path, out)
            path.pop()
    elif cls is Par:
        left, right = s.left, s.right
        if not protected_pred(right):
            path.append((s, "left"))
            _decompose_stmt(left, path, out)
            path.pop()
        if not protected_pred(left):
            path.append((s, "right"))
            _decompose_stmt(right, path, out)
            path.pop()
    elif cls is If:
        cond = s.cond
        if type(cond) is TrueLit or type(cond) is FalseLit:
            out.append((tuple(path), s))
        else:
            path.append((s, "cond"))
            _decompose_exp(cond, path, out)
            path.pop()
    elif cls in _STMT_REDEXES:
        out.append((tuple(path), s))
    elif cls is Protected:
        body = s.body
        if type(body) is ValStmt:
            out.append((tuple(path), s))
        else:
            path.append((s, "body"))
            _decompose_stmt(body, path, out)
            path.pop()
    elif cls is ValStmt:
        pass  # a normal form: no redex
    elif cls is ExprStmt:
        e = s.expr
        if type(e) in _LITERALS:
            out.append((tuple(path), s))
        else:
            path.append((s, "expr"))
            _decompose_exp(e, path, out)
            path.pop()
    else:
        raise TypeError(f"not a statement: {s!r}")


def _decompose_exp(e: Expr, path: list[tuple[Redex, str]],
                   out: list[tuple[EvalContext, Redex]]) -> None:
    cls = type(e)
    if cls in OPERATORS:
        left, right = e.left, e.right
        if type(left) not in _LITERALS:
            path.append((e, "left"))
            _decompose_exp(left, path, out)
            path.pop()
        elif type(right) not in _LITERALS:
            path.append((e, "right"))
            _decompose_exp(right, path, out)
            path.pop()
        else:
            out.append((tuple(path), e))
    elif cls is Var:
        out.append((tuple(path), e))
    elif cls is Not:
        operand = e.operand
        if type(operand) in _LITERALS:
            out.append((tuple(path), e))
        else:
            path.append((e, "operand"))
            _decompose_exp(operand, path, out)
            path.pop()
    elif cls not in _LITERALS:
        raise TypeError(f"not an expression: {e!r}")


def plug(ctx: EvalContext, filled: Redex) -> Stmt:
    """Rebuild the whole statement with `filled` at the hole of `ctx`."""
    current = filled
    for node, field in reversed(ctx):
        current = plug_frame(node, field, current)
    return current


def plug_frame(node: Redex, field: str, filled: Redex) -> Redex:
    cls = type(node)
    if cls is Seq:
        return Seq(filled, node.second)
    if cls is Update:
        return Update(node.name, filled)
    if cls is Par:
        return Par(filled, node.right) if field == "left" else Par(node.left, filled)
    if cls in OPERATORS:
        if field == "left":
            return cls(filled, node.right)
        return cls(node.left, filled)
    if cls is If:
        return If(filled, node.then_branch, node.else_branch)
    if cls is Decl:
        return Decl(node.type_name, node.name, filled)
    if cls is Protected:
        return Protected(filled)
    if cls is Not:
        return Not(filled)
    if cls is ExprStmt:
        return ExprStmt(filled)
    raise TypeError(f"not a frame: {(node, field)!r}")
