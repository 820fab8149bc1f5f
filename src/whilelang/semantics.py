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

A step is the `(rule, configuration)` pair that `Trace.steps` holds. Its
rule is the root-to-axiom path of rule names, e.g. "Par1/Seq2/Assign";
expression-position descent adds no component, and the primitive
expression steps carry Expr-* labels.

Failed contractions (unbound names, redeclaration in the same scope, a
pop of the global scope, values of the wrong shape) produce no step: the
configuration is stuck, `stuck_redexes` lists every offending redex and
`diagnose` reports the first. There are no error transitions. Every
failure is at the redex being contracted, so the contractions name
neither redex nor reason: a failed store operation's `EnvError` passes
through them, an operand of the wrong shape raises `_StuckRedex`, and one
handler in `_step_and_diagnose` turns either into the redex's
`StuckInfo`, reading a store failure's reason from `_STORE_FAILURES` by
the redex's class.

`successors(c, reduce=True)` is the partial-order reduced relation used
when only the leaves matter: it keeps a single step when that step is
persistent (no interleaving of the other par sides can disable it or be
affected by it), which preserves every terminal and stuck configuration
reachable from `c` (Godefroid, LNCS 1032, 1996). Each axiom belongs to one
redex class, so the redex's class says whether a step may be persistent.
The explorer also takes each state it reaches so in `symmetric_form`,
merging states whose par sides differ only in order (Emerson & Sistla,
FMSD 1996; Ip & Dill, FMSD 1996).
"""

from __future__ import annotations

from . import env as envmod
from .env import Env, EnvError
from .syntax import (
    MAX_NUMERAL_DIGITS, Add, And, Begin, BeginScope, Call, Decl, Empty,
    EndScope, Eq, EvalContext, Expr, ExprStmt, FalseLit, If, Le, Mul, NatLit,
    Not, Par, ProcDecl, Protect, Protected, Redex, Seq, Stmt, Sub, TRUE,
    FALSE, TrueLit, Update, ValStmt, Var, VOID_STMT, VoidV, While, OPERATORS,
    BOOL_LITERALS, HOLES, decompose, hole_class, plug_frame, protected_pred,
    record, symmetric_form,
)

_EXPR_REDEXES = (Var, *OPERATORS, Not)
_NUMERAL_LIMIT = 10 ** MAX_NUMERAL_DIGITS


@record
class Configuration:
    store: Env
    procs: Env
    stmt: Stmt


@record
class StuckInfo:
    at: Redex
    reason: str


class _StuckRedex(Exception):
    """The redex being contracted has an operand of the wrong shape."""


class NumeralOverflow(Exception):
    """A sum or product longer than MAX_NUMERAL_DIGITS digits. It is no stuck
    redex: it ends a run or an exploration, as an exhausted budget does."""


def is_terminal(c: Configuration) -> bool:
    return isinstance(c.stmt, ValStmt)


# ---------------------------------------------------------------------------
# Expression redexes

def _numeral(n: int) -> NatLit:
    if n >= _NUMERAL_LIMIT:
        raise NumeralOverflow(f"a numeral exceeds {MAX_NUMERAL_DIGITS} digits")
    return NatLit(n)


# Each binary operator: its axiom and the literal it yields from two
# operands of the literal classes that HOLES gives it.
_BINARY_AXIOMS = {
    Add: ("Expr-Add", lambda a, b: _numeral(a.n + b.n)),
    Sub: ("Expr-Sub", lambda a, b: NatLit(max(0, a.n - b.n))),
    Mul: ("Expr-Mul", lambda a, b: _numeral(a.n * b.n)),
    Eq: ("Expr-Eq", lambda a, b: TRUE if a.n == b.n else FALSE),
    Le: ("Expr-Le", lambda a, b: TRUE if a.n <= b.n else FALSE),
    And: ("Expr-And", lambda a, b: TRUE if type(a) is type(b) is TrueLit
          else FALSE),
}


def contract_expr(store: Env, redex: Expr, hole: tuple[type, ...]) \
        -> tuple[str, Expr]:
    """Contract an expression redex; subtraction is monus, conjunction is
    strict in both operands."""
    cls = type(redex)
    if cls is Var:
        value = envmod.lookup_var(store, redex.name)
        if isinstance(value, hole):
            return "Expr-Var", value
        raise _StuckRedex
    binary = _BINARY_AXIOMS.get(cls)
    if binary is not None:
        left, right = redex.left, redex.right
        operands = HOLES[cls]
        if type(left) in operands and type(right) in operands:
            axiom, op = binary
            return axiom, op(left, right)
        raise _StuckRedex
    if cls is Not:
        operand = type(redex.operand)
        if operand in BOOL_LITERALS:
            return "Expr-Not", FALSE if operand is TrueLit else TRUE
        raise _StuckRedex
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
    cls = type(redex)
    if cls is Update:
        store2 = envmod.update_var(store, redex.name, redex.rhs)
        return "Update", VOID_STMT, store2, procs
    elif cls is While:
        unfolded = If(redex.cond, Seq(redex.body, redex), VOID_STMT)
        return "While", unfolded, store, procs
    elif cls is If:
        cond = type(redex.cond)
        if cond is TrueLit:
            return "If-True", redex.then_branch, store, procs
        if cond is FalseLit:
            return "If-False", redex.else_branch, store, procs
    elif cls is Call:
        return "Call", envmod.lookup_proc(procs, redex.name), store, procs
    elif cls is Decl:
        store2 = envmod.declare_var(store, redex.name, redex.rhs)
        return "Assign", VOID_STMT, store2, procs
    elif cls is Begin:
        return "Begin", _desugar_begin(redex), store, procs
    elif cls is BeginScope:
        store2, procs2 = envmod.push_scope(store, procs)
        return "BeginScope", VOID_STMT, store2, procs2
    elif cls is EndScope:
        store2, procs2 = envmod.pop_scope(store, procs)
        return "EndScope", VOID_STMT, store2, procs2
    elif cls is Protect:
        return "Protect", Protected(redex.body), store, procs
    elif cls is Protected:
        if type(redex.body) is ValStmt:
            return "Protected", VOID_STMT, store, procs
    elif cls is ProcDecl:
        procs2 = envmod.declare_proc(procs, redex.name, redex.body)
        return "Proc", VOID_STMT, store, procs2
    elif cls is Seq:
        if type(redex.first) is ValStmt:
            return "Seq-discharge", redex.second, store, procs
    elif cls is ExprStmt:
        return "Expr-Val", ValStmt(redex.expr), store, procs
    elif cls is Empty:
        return "Empty", VOID_STMT, store, procs
    raise TypeError(f"not a statement redex: {redex!r}")


# One string per rule label, so that the steps of a trace and the edges of
# a graph share it. A label is the path of frames a step passes, so a
# program has few. `sys.intern` would not do: CPython drops an interned
# string once nothing else holds it, so a run that keeps no step would
# intern each label anew and keep resizing the interpreter's table.
_LABELS: dict[str, str] = {}


def _rebuild(ctx: EvalContext, filled: Redex, axiom: str, store: Env,
             procs: Env) -> tuple[str, Configuration]:
    """Wrap the contractum back up through the context, applying the value
    collapses of the sequencing and parallelism rules, into the step: the
    rule-name path, taken from `_LABELS`, and the configuration with the
    given stores."""
    rule = axiom
    current = filled
    for node, field in reversed(ctx):
        cls = type(node)
        if cls is Seq:
            # Class tests, not `== VOID_STMT`: this runs once per frame
            # of every step, and dataclass __eq__ builds two tuples.
            if type(current) is ValStmt and type(current.value) is VoidV:
                rule = "Seq2/" + rule
                current = node.second
                continue
            rule = "Seq1/" + rule
        elif cls is Par:
            left = field == "left"
            if type(current) is ValStmt:
                rule = ("Par2/" if left else "Par4/") + rule
                current = node.right if left else node.left
                continue
            rule = ("Par1/" if left else "Par3/") + rule
        current = plug_frame(node, field, current)
    return (_LABELS.setdefault(rule, rule),
            Configuration(store, procs, current))


# ---------------------------------------------------------------------------
# Persistent steps

# Redexes whose axioms touch neither the stores nor an atomic region.
_PURE_REDEXES = frozenset({*OPERATORS, Not, ExprStmt, Seq, If, While, Begin,
                           Empty})

# Statements that may block another par side (an atomic region), run code
# not visible in the term (a call), or change how names resolve.
_INTERFERING = frozenset({Protect, Protected, Call, Decl, Begin, BeginScope,
                          EndScope, ProcDecl})


def _interferes(s: Stmt, name: str | None) -> bool:
    """Whether a par side holds an interfering statement, or any occurrence
    of `name` when one is given (expressions are only searched then)."""
    todo: list = [s]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is Update:
            if name is not None:
                if node.name == name:
                    return True
                todo.append(node.rhs)
        elif cls is Seq:
            todo += (node.first, node.second)
        elif cls is Par:
            todo += (node.left, node.right)
        elif cls is Var:
            if node.name == name:
                return True
        elif cls in OPERATORS:
            todo += (node.left, node.right)
        elif cls in _INTERFERING:
            return True
        elif cls is If:
            todo += (node.then_branch, node.else_branch)
            if name is not None:
                todo.append(node.cond)
        elif cls is While:
            todo.append(node.body)
            if name is not None:
                todo.append(node.cond)
        elif cls is ExprStmt:
            if name is not None:
                todo.append(node.expr)
        elif cls is Not:
            todo.append(node.operand)
    return False


def _persistent(ctx: EvalContext, redex: Redex, contractum: Redex) -> bool:
    """Whether a step that contracted `redex` under `ctx` commutes with,
    and can neither disable nor be disabled by, every step the other par
    sides on its path could take.

    A pure step qualifies, and so does a read or update of a name that no
    other side mentions; the redex's class tells which it is. No other
    side may hold an interfering statement.
    The step must also not bring an atomic region to the head of its own
    side, which would block the others: only runtime-built terms hold a
    `protected` off the head of a sequence or in a branch.
    """
    cls = type(redex)
    if cls is Update or cls is Var:
        name = redex.name
    elif cls in _PURE_REDEXES:
        name = None
    else:
        return False
    if protected_pred(contractum):
        return False
    for node, field in ctx:
        cls = type(node)
        if cls is Par:
            if _interferes(node.right if field == "left" else node.left, name):
                return False
        elif cls is Seq:
            if protected_pred(node.second):
                return False
    return True


# Why a redex is stuck when the store operation of its axiom fails: an
# unbound name, a name already declared in the deepest scope, or a pop of
# the global scope. Each such redex class has one operation.
_STORE_FAILURES = {
    Var: "unbound variable {0.name}",
    Update: "unbound variable {0.name}",
    Call: "unbound procedure {0.name}",
    Decl: "variable {0.name} already declared in this scope",
    ProcDecl: "procedure {0.name} already declared in this scope",
    EndScope: "cannot pop the global scope",
}


def _step_and_diagnose(c: Configuration, reduce: bool = False) \
        -> tuple[list[tuple[str, Configuration]], list[StuckInfo]]:
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
        except (EnvError, _StuckRedex) as failure:
            reason = (_STORE_FAILURES[type(redex)].format(redex)
                      if isinstance(failure, EnvError)
                      else "operand of wrong shape")
            stuck.append(StuckInfo(redex, reason))
            continue
        step = (ctx, contractum, axiom, store2, procs2)
        if reduce and _persistent(ctx, redex, contractum):
            contracted = [step]
            break
        contracted.append(step)
    results = [_rebuild(*step) for step in contracted]
    if not results and not stuck and not is_terminal(c):
        # Named by its symmetric form, so that the order of par sides,
        # which reduced exploration does not keep, does not show.
        stuck.append(StuckInfo(symmetric_form(c.stmt),
                               "no applicable reduction"))
    return results, stuck


def successors(c: Configuration, reduce: bool = False) \
        -> list[tuple[str, Configuration]]:
    """The steps from a configuration, as `(rule, configuration)` pairs.

    Empty for terminal configurations, and also for stuck ones; use
    `diagnose` to tell the two apart and name the offender. By default the
    set is complete. With `reduce`, the first persistent step in
    decomposition order is returned alone when there is one, and the
    complete set otherwise: closing over that relation reaches every
    terminal and stuck configuration the complete one reaches, through
    fewer interleavings. Successors are not put in `symmetric_form` here;
    reduced exploration does that before it deduplicates them, and
    `outcomes` then reads every stuck redex of a leaf, which does not
    depend on the order of its par sides.
    """
    return _step_and_diagnose(c, reduce)[0]


def stuck_redexes(c: Configuration) -> list[StuckInfo]:
    """Every stuck redex of a configuration with no successors, in
    decomposition order; empty when it has a successor or is terminal.
    As a set it does not depend on the order of par sides."""
    results, stuck = _step_and_diagnose(c)
    return [] if results else stuck


def diagnose(c: Configuration) -> StuckInfo | None:
    """Why a non-terminal configuration has no successors, if that is so:
    its first stuck redex in decomposition order."""
    stuck = stuck_redexes(c)
    return stuck[0] if stuck else None
