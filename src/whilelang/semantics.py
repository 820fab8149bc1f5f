"""One-step reduction over configurations.

A configuration is a variable store, a procedure store, and a runtime
statement; it is terminal exactly when the statement is a value. The step
relation is computed by decomposing the statement into an evaluation
context and a redex, contracting the redex, and rebuilding. Rebuilding is
where the sequencing and parallelism rules apply:

* a sequence head that steps to void is discharged (Seq2), otherwise the
  sequence is rebuilt (Seq1); a head that already is a value is removed by
  the Seq-discharge rule;
* a par side that steps to a value leaves the composition (Par2/Par4),
  otherwise the composition is rebuilt (Par1/Par3); a side may only step
  while the opposite side is not inside an atomic region.

Each step is labeled with the root-to-axiom path of rule names, e.g.
"Par1/Seq2/Assign"; expression-position descent contributes no component,
the primitive expression steps carry Expr-* labels.

Failed contractions (unbound names, redeclaration in the same scope,
values of the wrong shape) produce no step: the configuration is stuck and
`diagnose` reports the offending redex. There are no error transitions.

`successors(c, reduce=True)` is the partial-order reduced relation used
when only the leaves matter: it keeps a single step when that step is
persistent (no interleaving of the other par sides can disable it or be
affected by it), which preserves every terminal and stuck configuration
reachable from `c` (Godefroid, LNCS 1032, 1996).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import env as envmod
from .env import Env, RedeclError, ScopeError, UnboundError
from .syntax import (
    MAX_NUMERAL_DIGITS, Add, And, Begin, BeginScope, Call, Decl, Empty,
    EndScope, Eq, EvalContext, Expr, ExprStmt, FalseLit, If, Le, Mul, NatLit,
    Not, Par, ProcDecl, Protect, Protected, Redex, Seq, Stmt, Sub, TRUE,
    FALSE, TrueLit, Update, ValStmt, Var, VOID_STMT, VoidV, While, decompose,
    hole_class, plug_frame, protected_pred,
)

_EXPR_REDEXES = (Var, Add, Sub, Mul, Eq, Le, And, Not)
_NUMERAL_LIMIT = 10 ** MAX_NUMERAL_DIGITS


@dataclass(frozen=True, slots=True)
class Configuration:
    store: Env
    procs: Env
    stmt: Stmt


@dataclass(frozen=True, slots=True)
class StepResult:
    rule: str
    next: Configuration


@dataclass(frozen=True, slots=True)
class StuckInfo:
    at: Redex
    reason: str


class _StuckRedex(Exception):
    def __init__(self, at: Redex, reason: str):
        self.info = StuckInfo(at, reason)
        super().__init__(reason)


class NumeralOverflow(Exception):
    """A sum or product longer than MAX_NUMERAL_DIGITS digits. It is no stuck
    redex: it ends a run or an exploration, as an exhausted budget does."""


def is_terminal(c: Configuration) -> bool:
    return isinstance(c.stmt, ValStmt)


# ---------------------------------------------------------------------------
# Expression redexes

def _resolve_var(store: Env, var: Var, hole: tuple[type, ...]) -> Expr:
    try:
        value = envmod.lookup_var(store, var.name)
    except UnboundError:
        raise _StuckRedex(var, f"unbound variable {var.name}") from None
    if isinstance(value, hole):
        return value
    raise _StuckRedex(var, "operand of wrong shape")


def _nat_operands(redex: Expr) -> tuple[int, int]:
    left, right = redex.left, redex.right
    if isinstance(left, NatLit) and isinstance(right, NatLit):
        return left.n, right.n
    raise _StuckRedex(redex, "operand of wrong shape")


def _numeral(n: int) -> NatLit:
    if n >= _NUMERAL_LIMIT:
        raise NumeralOverflow(f"a numeral exceeds {MAX_NUMERAL_DIGITS} digits")
    return NatLit(n)


# Each binary operator on numerals: its axiom and the literal it yields.
_NAT_AXIOMS = {
    Add: ("Expr-Add", lambda a, b: _numeral(a + b)),
    Sub: ("Expr-Sub", lambda a, b: NatLit(max(0, a - b))),
    Mul: ("Expr-Mul", lambda a, b: _numeral(a * b)),
    Eq: ("Expr-Eq", lambda a, b: TRUE if a == b else FALSE),
    Le: ("Expr-Le", lambda a, b: TRUE if a <= b else FALSE),
}


def contract_expr(store: Env, redex: Expr, hole: tuple[type, ...]) \
        -> tuple[str, Expr]:
    """Contract an expression redex; subtraction is monus, conjunction is
    strict in both operands."""
    match redex:
        case Var(_):
            return "Expr-Var", _resolve_var(store, redex, hole)
        case Add() | Sub() | Mul() | Eq() | Le():
            axiom, op = _NAT_AXIOMS[type(redex)]
            return axiom, op(*_nat_operands(redex))
        case And(left, right):
            if isinstance(left, (TrueLit, FalseLit)) and \
                    isinstance(right, (TrueLit, FalseLit)):
                both = isinstance(left, TrueLit) and isinstance(right, TrueLit)
                return "Expr-And", TRUE if both else FALSE
            raise _StuckRedex(redex, "operand of wrong shape")
        case Not(operand):
            if isinstance(operand, (TrueLit, FalseLit)):
                return "Expr-Not", FALSE if isinstance(operand, TrueLit) else TRUE
            raise _StuckRedex(redex, "operand of wrong shape")
    raise TypeError(f"not an expression redex: {redex!r}")


# ---------------------------------------------------------------------------
# Statement redexes

def _desugar_begin(block: Begin) -> Stmt:
    items: list[Stmt] = [BeginScope()]
    items += list(block.decls)
    items += list(block.procs)
    items += [block.body, EndScope()]
    stmt = items[-1]
    for item in reversed(items[:-1]):
        stmt = Seq(item, stmt)
    return stmt


def contract_stmt(store: Env, procs: Env, redex: Stmt) \
        -> tuple[str, Stmt, Env, Env]:
    match redex:
        case Decl(_, name, rhs):
            try:
                store2 = envmod.declare_var(store, name, rhs)
            except RedeclError:
                raise _StuckRedex(
                    redex, f"variable {name} already declared in this scope"
                ) from None
            return "Assign", VOID_STMT, store2, procs
        case Update(name, rhs):
            try:
                store2 = envmod.update_var(store, name, rhs)
            except UnboundError:
                raise _StuckRedex(redex, f"unbound variable {name}") from None
            return "Update", VOID_STMT, store2, procs
        case Seq(ValStmt(_), second):
            return "Seq-discharge", second, store, procs
        case Empty():
            return "Empty", VOID_STMT, store, procs
        case If(TrueLit(), then_branch, _):
            return "If-True", then_branch, store, procs
        case If(FalseLit(), _, else_branch):
            return "If-False", else_branch, store, procs
        case While(cond, body):
            unfolded = If(cond, Seq(body, redex), VOID_STMT)
            return "While", unfolded, store, procs
        case Begin():
            return "Begin", _desugar_begin(redex), store, procs
        case BeginScope():
            store2, procs2 = envmod.push_scope(store, procs)
            return "BeginScope", VOID_STMT, store2, procs2
        case EndScope():
            try:
                store2, procs2 = envmod.pop_scope(store, procs)
            except ScopeError:
                raise _StuckRedex(redex, "cannot pop the global scope") from None
            return "EndScope", VOID_STMT, store2, procs2
        case ProcDecl(name, body):
            try:
                procs2 = envmod.declare_proc(procs, name, body)
            except RedeclError:
                raise _StuckRedex(
                    redex, f"procedure {name} already declared in this scope"
                ) from None
            return "Proc", VOID_STMT, store, procs2
        case Call(name):
            try:
                body = envmod.lookup_proc(procs, name)
            except UnboundError:
                raise _StuckRedex(redex, f"unbound procedure {name}") from None
            return "Call", body, store, procs
        case Protect(body):
            return "Protect", Protected(body), store, procs
        case Protected(ValStmt(_)):
            return "Protected", VOID_STMT, store, procs
        case ExprStmt(e):
            return "Expr-Val", ValStmt(e), store, procs
    raise TypeError(f"not a statement redex: {redex!r}")


def _rebuild(ctx: EvalContext, filled: Redex, axiom: str) -> tuple[str, Stmt]:
    """Wrap the contractum back up through the context, applying the value
    collapses of the sequencing and parallelism rules and collecting the
    rule-name path."""
    components: list[str] = []
    current = filled
    for node, field in reversed(ctx):
        match node:
            case Seq(_, rest):
                # Class tests, not `== VOID_STMT`: this runs once per frame
                # of every step, and dataclass __eq__ builds two tuples.
                if isinstance(current, ValStmt) and \
                        isinstance(current.value, VoidV):
                    components.append("Seq2")
                    current = rest
                else:
                    components.append("Seq1")
                    current = Seq(current, rest)
            case Par(_, right) if field == "left":
                if isinstance(current, ValStmt):
                    components.append("Par2")
                    current = right
                else:
                    components.append("Par1")
                    current = Par(current, right)
            case Par(left, _):
                if isinstance(current, ValStmt):
                    components.append("Par4")
                    current = left
                else:
                    components.append("Par3")
                    current = Par(left, current)
            case _:
                current = plug_frame(node, field, current)
    components.reverse()
    components.append(axiom)
    return "/".join(components), current


# ---------------------------------------------------------------------------
# Persistent steps

# Axioms that touch neither the stores nor an atomic region.
_PURE_AXIOMS = frozenset({
    "Expr-Add", "Expr-Sub", "Expr-Mul", "Expr-Eq", "Expr-Le", "Expr-And",
    "Expr-Not", "Expr-Val", "Seq-discharge", "If-True", "If-False", "While",
    "Begin", "Empty",
})

# Statements that may block another par side (an atomic region), run code
# not visible in the term (a call), or change how names resolve.
_INTERFERING = (Protect, Protected, Call, Decl, Begin, BeginScope, EndScope,
                ProcDecl)


def _interferes(s: Stmt, name: str | None) -> bool:
    """Whether a par side holds an interfering statement, or any occurrence
    of `name` when one is given (expressions are only searched then)."""
    todo: list = [s]
    while todo:
        node = todo.pop()
        if isinstance(node, _INTERFERING):
            return True
        match node:
            case Seq(first, second) | Par(first, second):
                todo += (first, second)
            case If(cond, then_branch, else_branch):
                todo += (then_branch, else_branch)
                if name is not None:
                    todo.append(cond)
            case While(cond, body):
                todo.append(body)
                if name is not None:
                    todo.append(cond)
            case Update(target, rhs) if name is not None:
                if target == name:
                    return True
                todo.append(rhs)
            case ExprStmt(e) if name is not None:
                todo.append(e)
            case Var(used):
                if used == name:
                    return True
            case Add() | Sub() | Mul() | Eq() | Le() | And():
                todo += (node.left, node.right)
            case Not(operand):
                todo.append(operand)
    return False


def _persistent(ctx: EvalContext, redex: Redex, axiom: str,
                contractum: Redex) -> bool:
    """Whether a step that contracted `redex` under `ctx` commutes with,
    and can neither disable nor be disabled by, every step the other par
    sides on its path could take.

    A pure step qualifies, and so does a read or update of a name that no
    other side mentions. No other side may hold an interfering statement.
    The step must also not bring an atomic region to the head of its own
    side, which would block the others: only runtime-built terms hold a
    `protected` off the head of a sequence or in a branch.
    """
    if axiom in _PURE_AXIOMS:
        name = None
    elif axiom in ("Expr-Var", "Update"):
        name = redex.name
    else:
        return False
    if protected_pred(contractum):
        return False
    for node, field in ctx:
        match node:
            case Par(left, right):
                if _interferes(right if field == "left" else left, name):
                    return False
            case Seq(_, rest):
                if protected_pred(rest):
                    return False
    return True


def _step_and_diagnose(c: Configuration, reduce: bool = False) \
        -> tuple[list[StepResult], list[StuckInfo]]:
    # Every redex is contracted before any is rebuilt, so that a reduced
    # step rebuilds only the step it keeps.
    contracted = []
    stuck: list[StuckInfo] = []
    for ctx, redex in decompose(c.stmt):
        try:
            if isinstance(redex, _EXPR_REDEXES):
                axiom, contractum = contract_expr(c.store, redex, hole_class(ctx))
                store2, procs2 = c.store, c.procs
            else:
                axiom, contractum, store2, procs2 = \
                    contract_stmt(c.store, c.procs, redex)
        except _StuckRedex as failure:
            stuck.append(failure.info)
            continue
        step = (ctx, contractum, axiom, store2, procs2)
        if reduce and _persistent(ctx, redex, axiom, contractum):
            contracted = [step]
            break
        contracted.append(step)
    results = []
    for ctx, contractum, axiom, store2, procs2 in contracted:
        rule, stmt2 = _rebuild(ctx, contractum, axiom)
        results.append(StepResult(rule, Configuration(store2, procs2, stmt2)))
    if not results and not stuck and not is_terminal(c):
        stuck.append(StuckInfo(c.stmt, "no applicable reduction"))
    return results, stuck


def successors(c: Configuration, reduce: bool = False) -> list[StepResult]:
    """The labeled one-step reducts of a configuration.

    Empty for terminal configurations, and also for stuck ones; use
    `diagnose` to tell the two apart and name the offender. By default the
    set is complete. With `reduce`, the first persistent step in
    decomposition order is returned alone when there is one, and the
    complete set otherwise: closing over that relation reaches every
    terminal and stuck configuration the complete one reaches, through
    fewer interleavings.
    """
    return _step_and_diagnose(c, reduce)[0]


def diagnose(c: Configuration) -> StuckInfo | None:
    """Why a non-terminal configuration has no successors, if that is so."""
    results, stuck = _step_and_diagnose(c)
    if results or is_terminal(c):
        return None
    return stuck[0]
