"""whilelang: a small imperative language with scoped stores, interleaved
parallelism with atomic regions, an exhaustive reduction-graph explorer,
and a type checker that records derivations."""

from .env import (
    Env, EnvError, RedeclError, ScopeError, UnboundError, declare_proc,
    declare_var, lookup_proc, lookup_var, parse_store, pop_scope, push_scope,
    render_procs, render_store, update_var,
)
from .explorer import (
    BudgetExceeded, OutcomeSet, ReductionGraph, Stuck, Terminated, Trace,
    explore, outcomes, run, to_dot, to_json_trace,
)
from .parser import ParseError, parse_program
from .semantics import (
    Configuration, StuckInfo, diagnose, is_terminal, protected_pred,
    successors,
)
from .syntax import (
    AExp, Add, And, BExp, Begin, BeginScope, Call, Decl, Empty, EndScope,
    Eq, EvalContext, Expr, ExprStmt, FalseLit, If, Le, Mul, NatLit, Not, Par,
    ProcDecl, Protect, Protected, Seq, Stmt, Sub, TrueLit, TypeName, Update,
    ValStmt, Value, Var, VoidV, While, decompose, plug, pretty, pretty_expr,
)
from .typesys import (
    Judgment, ProcTypeEnv, TypeCheckError, TypeEnv, check_program,
    env_diff, env_union, render_derivation, type_of_expr, type_of_stmt,
)

__version__ = "0.1.0"
