"""Type checker with derivation recording.

Variables live in an ordered environment where the most recent binding of a
name wins and duplicates are kept; procedures map to the environment of
bindings their bodies introduce. Expression judgments leave the
environments untouched and have type Nat or Bool; statement judgments
have type Cmd, thread the environments left to right and may append
bindings:

    T-Assign   G D |- e : t          =>  G D |- var t x := e : Cmd -| G+{x:t} D
    T-Update   G D |- e : G(x)       =>  G D |- x := e : Cmd -| G D
    T-Seq      thread G and D through S1 then S2
    T-If       both branches from the same inputs;
               output G = input + additions of both branches
    T-While    body must leave both environments fixed
    T-Begin    check sections then body with threading; outputs reset
               to the inputs, block bindings stay local
    T-Proc     D gains p -> (bindings the body added); G unchanged
    T-Call     G output = G + D(p)
    T-Par      like T-If without a condition; T-Protect passes through

A failed check raises TypeCheckError rendered as
"error[RULE] at <subterm>: <cause>". A runtime-only form has no rule and
is rejected where the checker meets it.

`type_of_expr` and `type_of_stmt` run once per judgment: each reads its
node's class once and tests it against a chain of classes, most often
judged first (the order of the `visits` counts in BENCH_15.json), so a
subclass of a syntax node is not recognised. `render_derivation` prints
each subject and each environment object once, and an expression
judgment's output environments, being its input objects, share their
text.
"""

from __future__ import annotations

from .syntax import (
    BOOL, CMD, EXPR_CLASSES, NAT, Add, And, Begin, Call, Decl, Empty, Eq,
    Expr, FalseLit, If, Le, Mul, NatLit, Not, OPERATORS, Par, Printer,
    ProcDecl, Protect, Redex, Seq, Stmt, Sub, TrueLit, TypeName, Update, Var,
    While, pretty, pretty_expr, record,
)

# A type's text, read without the enum's `value` descriptor.
_TYPE_TEXT = {t: t.value for t in TypeName}


@record
class TypeEnv:
    bindings: tuple[tuple[str, TypeName], ...] = ()

    def lookup(self, name: str) -> TypeName | None:
        for key, t in reversed(self.bindings):
            if key == name:
                return t
        return None

    def extend(self, name: str, t: TypeName) -> "TypeEnv":
        return TypeEnv(self.bindings + ((name, t),))

    def is_prefix_of(self, other: "TypeEnv") -> bool:
        return self.bindings == other.bindings[:len(self.bindings)]

    def render(self) -> str:
        return "{" + ", ".join(f"{k}={_TYPE_TEXT[t]}" for k, t in self.bindings) + "}"


@record
class ProcTypeEnv:
    entries: tuple[tuple[str, TypeEnv], ...] = ()

    def lookup(self, name: str) -> TypeEnv | None:
        for key, g in self.entries:
            if key == name:
                return g
        return None

    def bind(self, name: str, g: TypeEnv) -> "ProcTypeEnv":
        if self.lookup(name) is not None:
            return ProcTypeEnv(tuple(
                (k, g if k == name else v) for k, v in self.entries))
        return ProcTypeEnv(self.entries + ((name, g),))

    def render(self) -> str:
        return "{" + ", ".join(f"{k}={g.render()}" for k, g in self.entries) + "}"


def env_union(g1: TypeEnv, g2: TypeEnv) -> TypeEnv:
    """Concatenation; duplicates survive, so lookups prefer g2's bindings."""
    return TypeEnv(g1.bindings + g2.bindings)


class PrefixError(Exception):
    """The before-environment is not a prefix of the after-environment;
    indicates a checker bug, since statements only append bindings."""


def env_diff(g_after: TypeEnv, g_before: TypeEnv) -> TypeEnv:
    """The suffix of bindings added after `g_before` (positional, not set)."""
    if not g_before.is_prefix_of(g_after):
        raise PrefixError(f"{g_before.render()} is not a prefix of {g_after.render()}")
    return TypeEnv(g_after.bindings[len(g_before.bindings):])


@record
class Judgment:
    rule: str
    gamma_in: TypeEnv
    delta_in: ProcTypeEnv
    subject: Redex
    type: TypeName
    gamma_out: TypeEnv
    delta_out: ProcTypeEnv
    children: tuple["Judgment", ...] = ()


class TypeCheckError(Exception):
    def __init__(self, rule: str, location: Redex, cause: str):
        self.rule = rule
        self.location = location
        self.cause = cause
        super().__init__(str(self))

    def __str__(self) -> str:
        return f"error[{self.rule}] at {_show(self.location)}: {self.cause}"


def _show(subject: Redex) -> str:
    if isinstance(subject, EXPR_CLASSES):
        return pretty_expr(subject)
    return pretty(subject)


def _mismatch(rule: str, location: Redex, expected: TypeName,
              found: TypeName) -> TypeCheckError:
    return TypeCheckError(rule, location, f"expected {expected}, found {found}")


# Each binary operator's rule; its types are in its OPERATORS row.
_BINARY_RULES = {Add: "T-Add", Sub: "T-Sub", Mul: "T-Mult", Eq: "T-Equal",
                 Le: "T-LEqual", And: "T-And"}


def type_of_expr(gamma: TypeEnv, delta: ProcTypeEnv, e: Expr) -> Judgment:
    """Expression judgment; output environments always equal the inputs.

    Each operand is judged here, not in a helper, so that each level of
    nesting costs one stack frame."""
    cls = type(e)
    if cls is Var:
        t = gamma.lookup(e.name)
        if t is None:
            raise TypeCheckError("T-Var", e, "unbound variable")
        return Judgment("T-Var", gamma, delta, e, t, gamma, delta)
    if cls is NatLit:
        return Judgment("T-Nat", gamma, delta, e, NAT, gamma, delta)
    row = OPERATORS.get(cls)
    if row is not None:
        rule = _BINARY_RULES[cls]
        want = row[4]
        left = type_of_expr(gamma, delta, e.left)
        if left.type is not want:
            raise _mismatch(rule, e, want, left.type)
        right = type_of_expr(gamma, delta, e.right)
        if right.type is not want:
            raise _mismatch(rule, e, want, right.type)
        return Judgment(rule, gamma, delta, e, row[5], gamma, delta,
                        (left, right))
    if cls is Not:
        j = type_of_expr(gamma, delta, e.operand)
        if j.type is not BOOL:
            raise _mismatch("T-Not", e, BOOL, j.type)
        return Judgment("T-Not", gamma, delta, e, BOOL, gamma, delta, (j,))
    if cls is TrueLit:
        return Judgment("T-True", gamma, delta, e, BOOL, gamma, delta)
    if cls is FalseLit:
        return Judgment("T-False", gamma, delta, e, BOOL, gamma, delta)
    raise TypeError(f"not an expression: {e!r}")


def type_of_stmt(gamma: TypeEnv, delta: ProcTypeEnv, s: Stmt) -> Judgment:
    cls = type(s)
    if cls is Update:
        bound = gamma.lookup(s.name)
        if bound is None:
            raise TypeCheckError("T-Update", s, "unbound variable")
        j = type_of_expr(gamma, delta, s.rhs)
        if j.type is not bound:
            raise _mismatch("T-Update", s, bound, j.type)
        return Judgment("T-Update", gamma, delta, s, CMD, gamma, delta, (j,))
    if cls is Seq:
        j1 = type_of_stmt(gamma, delta, s.first)
        j2 = type_of_stmt(j1.gamma_out, j1.delta_out, s.second)
        return Judgment("T-Seq", gamma, delta, s, CMD,
                        j2.gamma_out, j2.delta_out, (j1, j2))
    if cls is Decl:
        j = type_of_expr(gamma, delta, s.rhs)
        t = s.type_name
        if j.type is not t:
            raise _mismatch("T-Assign", s, t, j.type)
        return Judgment("T-Assign", gamma, delta, s, CMD,
                        gamma.extend(s.name, t), delta, (j,))
    if cls is Begin:
        children = []
        g, d = gamma, delta
        for section in (s.decls, s.procs):
            if not section:
                children.append(_empty_judgment(g, d))
            for item in section:
                j = type_of_stmt(g, d, item)
                children.append(j)
                g, d = j.gamma_out, j.delta_out
        children.append(type_of_stmt(g, d, s.body))
        return Judgment("T-Begin", gamma, delta, s, CMD,
                        gamma, delta, tuple(children))
    if cls is ProcDecl:
        jb = type_of_stmt(gamma, delta, s.body)
        added = env_diff(jb.gamma_out, gamma)
        return Judgment("T-Proc", gamma, delta, s, CMD,
                        gamma, delta.bind(s.name, added), (jb,))
    if cls is If:
        jc = type_of_expr(gamma, delta, s.cond)
        if jc.type is not BOOL:
            raise _mismatch("T-If", s, BOOL, jc.type)
        j1 = type_of_stmt(gamma, delta, s.then_branch)
        j2 = type_of_stmt(gamma, delta, s.else_branch)
        return Judgment("T-If", gamma, delta, s, CMD,
                        _join(gamma, j1, j2), delta, (jc, j1, j2))
    if cls is Call:
        bound = delta.lookup(s.name)
        if bound is None:
            raise TypeCheckError("T-Call", s, "unbound procedure")
        return Judgment("T-Call", gamma, delta, s, CMD,
                        env_union(gamma, bound), delta)
    if cls is While:
        jc = type_of_expr(gamma, delta, s.cond)
        if jc.type is not BOOL:
            raise _mismatch("T-While", s, BOOL, jc.type)
        jb = type_of_stmt(gamma, delta, s.body)
        if jb.gamma_out != gamma or jb.delta_out != delta:
            raise TypeCheckError("T-While", s, "loop body modifies environment")
        return Judgment("T-While", gamma, delta, s, CMD,
                        gamma, delta, (jc, jb))
    if cls is Par:
        j1 = type_of_stmt(gamma, delta, s.left)
        j2 = type_of_stmt(gamma, delta, s.right)
        return Judgment("T-Par", gamma, delta, s, CMD,
                        _join(gamma, j1, j2), delta, (j1, j2))
    if cls is Protect:
        jb = type_of_stmt(gamma, delta, s.body)
        return Judgment("T-Protect", gamma, delta, s, CMD,
                        jb.gamma_out, jb.delta_out, (jb,))
    raise TypeCheckError("check", s, "runtime-only construct")


def _join(gamma: TypeEnv, j1: Judgment, j2: Judgment) -> TypeEnv:
    """The output environment of T-If's branches or T-Par's sides, judged
    from `gamma`: `gamma`, then what `j1` added, then what `j2` added."""
    return env_union(env_union(gamma, env_diff(j1.gamma_out, gamma)),
                     env_diff(j2.gamma_out, gamma))


def _empty_judgment(gamma: TypeEnv, delta: ProcTypeEnv) -> Judgment:
    return Judgment("T-Empty", gamma, delta, Empty(), CMD, gamma, delta)


def check_program(s: Stmt) -> Judgment:
    """Check a source program from empty environments, recording the full
    derivation. A runtime-only construct is rejected where the checker
    meets it, so an error earlier in the term is reported first."""
    return type_of_stmt(TypeEnv(), ProcTypeEnv(), s)


def render_derivation(j: Judgment) -> str:
    """Indented one-line-per-judgment rendering of a derivation tree; each
    subject and each environment object is printed once."""
    lines: list[str] = []
    printer = Printer()
    # Keyed by identity, and each entry holds its object, as in `Printer`.
    envs: dict[int, tuple[TypeEnv | ProcTypeEnv, str]] = {}

    def env(g: TypeEnv | ProcTypeEnv) -> str:
        entry = envs.get(id(g))
        if entry is None:
            entry = envs[id(g)] = (g, g.render())
        return entry[1]

    def walk(node: Judgment, depth: int) -> None:
        s = node.subject
        text = pretty_expr(s) if isinstance(s, EXPR_CLASSES) else printer.stmt(s)
        before = f"{env(node.gamma_in)} {env(node.delta_in)}"
        # Every expression judgment leaves both environments as they were.
        if node.gamma_out is node.gamma_in and node.delta_out is node.delta_in:
            after = before
        else:
            after = f"{env(node.gamma_out)} {env(node.delta_out)}"
        lines.append(f"{'  ' * depth}{node.rule}: {before} ⊢ {text}"
                     f" : {_TYPE_TEXT[node.type]} ⊣ {after}")
        for child in node.children:
            walk(child, depth + 1)

    try:
        walk(j, 0)
    finally:
        # `walk` reaches itself through its closure cell; emptying the cell
        # leaves no cycle for the collector.
        del walk
    return "\n".join(lines) + "\n"
