"""Independent reference implementations the fast paths are checked against.

Everything here trades speed for obviousness and deliberately avoids the
library's decomposition/graph machinery.
"""

import dataclasses
import functools
from collections import deque
from dataclasses import dataclass, field

from whilelang import env as envmod
from whilelang.env import (
    Env, RedeclError, ScopeError, UnboundError, render_procs, render_store,
)
from whilelang.parser import (
    KEYWORDS, RUNTIME_KEYWORDS, ParseError, Token, tokenize,
)
from whilelang.semantics import (
    Configuration, NumeralOverflow, StuckInfo, successors,
)
from whilelang.typesys import (
    Judgment, TypeCheckError, env_diff, env_union,
)
from whilelang.syntax import (
    Add, And, Begin, BeginScope, Call, Decl, Empty, EndScope, Eq, Expr,
    ExprStmt, FalseLit, Le, Mul, NatLit, Not, Par, ProcDecl, Protect,
    Protected, Seq, Stmt, Sub, TrueLit, TypeName, Update, ValStmt, Var, VoidV,
    While, If, MAX_NUMERAL_DIGITS, TRUE, FALSE, VOID_STMT, pretty, pretty_expr,
)


_SYMBOLS = (":=", "<=", ";", "{", "}", "(", ")", "+", "-", "*", "=")

_ALIASES = {"≤": "<=", "∧": "and", "¬": "not", "−": "-"}


def oracle_tokenize(source: str) -> list[Token]:
    """The tokenizer as a character loop, one character class at a time."""
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


def is_value_node(e) -> bool:
    return isinstance(e, (NatLit, TrueLit, FalseLit))


def oracle_protected(s) -> bool:
    if isinstance(s, Protected):
        return True
    if isinstance(s, Seq):
        return oracle_protected(s.first)
    if isinstance(s, Par):
        return oracle_protected(s.left) or oracle_protected(s.right)
    return False


def oracle_positions(s):
    """Every context-grammar position, as (path-of-(node, slot), subterm).

    Enumerates by walking the grammar case by case; the caller filters for
    redexes. Paths are tuples of (parent node, field name).
    """
    yield ((), s)

    def inside(parent, slot, child):
        for path, sub in oracle_positions_expr(child) if _is_expr(child) \
                else oracle_positions(child):
            yield (((parent, slot),) + path, sub)

    if isinstance(s, Seq) and not isinstance(s.first, ValStmt):
        yield from inside(s, "first", s.first)
    elif isinstance(s, Par):
        if not oracle_protected(s.right):
            yield from inside(s, "left", s.left)
        if not oracle_protected(s.left):
            yield from inside(s, "right", s.right)
    elif isinstance(s, Protected) and not isinstance(s.body, ValStmt):
        yield from inside(s, "body", s.body)
    elif isinstance(s, If) and not is_value_node(s.cond):
        yield from inside(s, "cond", s.cond)
    elif isinstance(s, Decl) and not is_value_node(s.rhs):
        yield from inside(s, "rhs", s.rhs)
    elif isinstance(s, Update) and not is_value_node(s.rhs):
        yield from inside(s, "rhs", s.rhs)
    elif isinstance(s, ExprStmt) and not is_value_node(s.expr):
        yield from inside(s, "expr", s.expr)


def oracle_positions_expr(e):
    yield ((), e)
    pairs = []
    if isinstance(e, (Add, Sub, Mul, Eq, Le, And)):
        if not is_value_node(e.left):
            pairs.append(("left", e.left))
        elif not is_value_node(e.right):
            pairs.append(("right", e.right))
    elif isinstance(e, Not) and not is_value_node(e.operand):
        pairs.append(("operand", e.operand))
    for slot, child in pairs:
        for path, sub in oracle_positions_expr(child):
            yield (((e, slot),) + path, sub)


def _is_expr(node) -> bool:
    return isinstance(node, (NatLit, Var, Add, Sub, Mul,
                             TrueLit, FalseLit, Eq, Le, And, Not))


def oracle_is_redex(node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, (Add, Sub, Mul, Eq, Le, And)):
        return is_value_node(node.left) and is_value_node(node.right)
    if isinstance(node, Not):
        return is_value_node(node.operand)
    if isinstance(node, (While, Begin, Call, Protect, ProcDecl,
                         BeginScope, EndScope, Empty)):
        return True
    if isinstance(node, Seq):
        return isinstance(node.first, ValStmt)
    if isinstance(node, Protected):
        return isinstance(node.body, ValStmt)
    if isinstance(node, If):
        return isinstance(node.cond, (TrueLit, FalseLit))
    if isinstance(node, (Decl, Update)):
        return is_value_node(node.rhs)
    if isinstance(node, ExprStmt):
        return is_value_node(node.expr)
    return False


def oracle_redex_positions(s: Stmt):
    """Paths to every schedulable redex, by brute enumeration."""
    return [(path, sub) for path, sub in oracle_positions(s)
            if oracle_is_redex(sub)]


def scan_lookup(env: Env, name: str):
    """Deepest-binding lookup by scanning one frame at a time."""
    hit = None
    for frame in env.frames:
        for key, value in frame:
            if key == name:
                hit = value
    return hit


def render_config(c: Configuration) -> str:
    return f"{pretty(c.stmt)} | {render_store(c.store)} | {render_procs(c.procs)}"


def oracle_render_derivation(j) -> str:
    """A derivation rendered judgment by judgment, each subject and
    environment printed from scratch."""
    lines = []

    def walk(node, depth):
        subject = node.subject
        text = pretty_expr(subject) if _is_expr(subject) else pretty(subject)
        lines.append(
            "  " * depth
            + f"{node.rule}: {node.gamma_in.render()} {node.delta_in.render()}"
            + f" ⊢ {text} : {node.type.value}"
            + f" ⊣ {node.gamma_out.render()} {node.delta_out.render()}")
        for child in node.children:
            walk(child, depth + 1)

    walk(j, 0)
    return "\n".join(lines) + "\n"


# Each binary operator's typing rule, operand type and result type.
_ORACLE_TYPING = {
    Add: ("T-Add", TypeName.NAT, TypeName.NAT),
    Sub: ("T-Sub", TypeName.NAT, TypeName.NAT),
    Mul: ("T-Mult", TypeName.NAT, TypeName.NAT),
    Eq: ("T-Equal", TypeName.NAT, TypeName.BOOL),
    Le: ("T-LEqual", TypeName.NAT, TypeName.BOOL),
    And: ("T-And", TypeName.BOOL, TypeName.BOOL),
}


def _oracle_mismatch(rule, location, expected, found):
    return TypeCheckError(rule, location, f"expected {expected}, found {found}")


def oracle_type_of_expr(gamma, delta, e):
    """The expression rules by structural pattern matching, one case each."""

    def axiom(rule, t, children=()):
        return Judgment(rule, gamma, delta, e, t, gamma, delta, children)

    match e:
        case NatLit(_):
            return axiom("T-Nat", TypeName.NAT)
        case TrueLit():
            return axiom("T-True", TypeName.BOOL)
        case FalseLit():
            return axiom("T-False", TypeName.BOOL)
        case Var(name):
            t = gamma.lookup(name)
            if t is None:
                raise TypeCheckError("T-Var", e, "unbound variable")
            return axiom("T-Var", t)
        case Not(b):
            j = oracle_type_of_expr(gamma, delta, b)
            if j.type is not TypeName.BOOL:
                raise _oracle_mismatch("T-Not", e, TypeName.BOOL, j.type)
            return axiom("T-Not", TypeName.BOOL, (j,))
        case Add(l, r) | Sub(l, r) | Mul(l, r) | Eq(l, r) | Le(l, r) | And(l, r):
            rule, want, t = _ORACLE_TYPING[type(e)]
            left = oracle_type_of_expr(gamma, delta, l)
            if left.type is not want:
                raise _oracle_mismatch(rule, e, want, left.type)
            right = oracle_type_of_expr(gamma, delta, r)
            if right.type is not want:
                raise _oracle_mismatch(rule, e, want, right.type)
            return axiom(rule, t, (left, right))
    raise TypeError(f"not an expression: {e!r}")


def _oracle_join(gamma, j1, j2):
    return env_union(env_union(gamma, env_diff(j1.gamma_out, gamma)),
                     env_diff(j2.gamma_out, gamma))


def oracle_type_of_stmt(gamma, delta, s):
    """The statement rules by structural pattern matching, one case each."""
    cmd = TypeName.CMD
    match s:
        case Decl(t, name, rhs):
            j = oracle_type_of_expr(gamma, delta, rhs)
            if j.type is not t:
                raise _oracle_mismatch("T-Assign", s, t, j.type)
            return Judgment("T-Assign", gamma, delta, s, cmd,
                            gamma.extend(name, t), delta, (j,))
        case Update(name, rhs):
            bound = gamma.lookup(name)
            if bound is None:
                raise TypeCheckError("T-Update", s, "unbound variable")
            j = oracle_type_of_expr(gamma, delta, rhs)
            if j.type is not bound:
                raise _oracle_mismatch("T-Update", s, bound, j.type)
            return Judgment("T-Update", gamma, delta, s, cmd,
                            gamma, delta, (j,))
        case Seq(first, second):
            j1 = oracle_type_of_stmt(gamma, delta, first)
            j2 = oracle_type_of_stmt(j1.gamma_out, j1.delta_out, second)
            return Judgment("T-Seq", gamma, delta, s, cmd,
                            j2.gamma_out, j2.delta_out, (j1, j2))
        case If(cond, then_branch, else_branch):
            jc = oracle_type_of_expr(gamma, delta, cond)
            if jc.type is not TypeName.BOOL:
                raise _oracle_mismatch("T-If", s, TypeName.BOOL, jc.type)
            j1 = oracle_type_of_stmt(gamma, delta, then_branch)
            j2 = oracle_type_of_stmt(gamma, delta, else_branch)
            return Judgment("T-If", gamma, delta, s, cmd,
                            _oracle_join(gamma, j1, j2), delta, (jc, j1, j2))
        case While(cond, body):
            jc = oracle_type_of_expr(gamma, delta, cond)
            if jc.type is not TypeName.BOOL:
                raise _oracle_mismatch("T-While", s, TypeName.BOOL, jc.type)
            jb = oracle_type_of_stmt(gamma, delta, body)
            if jb.gamma_out != gamma or jb.delta_out != delta:
                raise TypeCheckError("T-While", s,
                                     "loop body modifies environment")
            return Judgment("T-While", gamma, delta, s, cmd,
                            gamma, delta, (jc, jb))
        case Begin(decls, procs, body):
            children = []
            g, d = gamma, delta
            for section in (decls, procs):
                if not section:
                    children.append(
                        Judgment("T-Empty", g, d, Empty(), cmd, g, d))
                for item in section:
                    j = oracle_type_of_stmt(g, d, item)
                    children.append(j)
                    g, d = j.gamma_out, j.delta_out
            children.append(oracle_type_of_stmt(g, d, body))
            return Judgment("T-Begin", gamma, delta, s, cmd,
                            gamma, delta, tuple(children))
        case ProcDecl(name, body):
            jb = oracle_type_of_stmt(gamma, delta, body)
            added = env_diff(jb.gamma_out, gamma)
            return Judgment("T-Proc", gamma, delta, s, cmd,
                            gamma, delta.bind(name, added), (jb,))
        case Call(name):
            bound = delta.lookup(name)
            if bound is None:
                raise TypeCheckError("T-Call", s, "unbound procedure")
            return Judgment("T-Call", gamma, delta, s, cmd,
                            env_union(gamma, bound), delta)
        case Par(left, right):
            j1 = oracle_type_of_stmt(gamma, delta, left)
            j2 = oracle_type_of_stmt(gamma, delta, right)
            return Judgment("T-Par", gamma, delta, s, cmd,
                            _oracle_join(gamma, j1, j2), delta, (j1, j2))
        case Protect(body):
            jb = oracle_type_of_stmt(gamma, delta, body)
            return Judgment("T-Protect", gamma, delta, s, cmd,
                            jb.gamma_out, jb.delta_out, (jb,))
        case _:
            raise TypeCheckError("check", s, "runtime-only construct")


def dfs_reachable_renderings(c0: Configuration, limit: int = 100_000):
    """Distinct configurations reachable from c0, keyed by canonical text."""
    seen = {}
    stack = [c0]
    while stack:
        c = stack.pop()
        key = render_config(c)
        if key in seen:
            continue
        seen[key] = c
        if len(seen) > limit:
            raise RuntimeError("oracle exploration blew its budget")
        for _, nxt in successors(c):
            stack.append(nxt)
    return seen


def oracle_explore(c0: Configuration, max_states: int, max_depth: int,
                   reduce: bool):
    """The explorer's breadth-first search with a membership test before
    each insertion and depths in a dict: (nodes, edges, truncated,
    unexpanded) as `explore` returns them. With `reduce`, the root and
    every successor are taken in symmetric form."""
    def canonical(c):
        if not reduce:
            return c
        return Configuration(c.store, c.procs, oracle_symmetric_form(c.stmt))

    c0 = canonical(c0)
    index = {c0: 0}
    nodes = [c0]
    depth = {0: 0}
    edges = []
    unexpanded = set()
    truncated = False
    frontier = deque([0])
    while frontier:
        src = frontier.popleft()
        options = successors(nodes[src], reduce)
        if depth[src] >= max_depth:
            if options:
                truncated = True
                unexpanded.add(src)
            continue
        for rule, nxt in options:
            target = canonical(nxt)
            if target in index:
                edges.append((src, rule, index[target]))
                continue
            if len(nodes) >= max_states:
                truncated = True
                unexpanded.add(src)
                continue
            index[target] = len(nodes)
            depth[len(nodes)] = depth[src] + 1
            nodes.append(target)
            edges.append((src, rule, index[target]))
            frontier.append(index[target])
    return tuple(nodes), tuple(edges), truncated, frozenset(unexpanded)


# ---------------------------------------------------------------------------
# Symmetric form: par sides sorted by a nested-tuple key, which orders terms
# as `syntax._compare_terms` does: by class in this list, then field by field.

_ORACLE_CLASS_ORDER = [
    NatLit, Var, Add, Sub, Mul, TrueLit, FalseLit, Eq, Le, And, Not, VoidV,
    If, While, Decl, Update, ProcDecl, Begin, Call, Par, Protect, Protected,
    BeginScope, EndScope, ExprStmt, ValStmt, Empty, Seq,
]


def _oracle_term_key(term):
    if isinstance(term, (str, int)):
        return term
    if isinstance(term, TypeName):
        return term.value
    if isinstance(term, tuple):
        return (len(term), *map(_oracle_term_key, term))
    return (_ORACLE_CLASS_ORDER.index(type(term)),
            *(_oracle_term_key(getattr(term, f.name))
              for f in dataclasses.fields(term)))


def _oracle_par_sides(s):
    if isinstance(s, Par):
        return _oracle_par_sides(s.left) + _oracle_par_sides(s.right)
    return [s]


def oracle_symmetric_form(s):
    match s:
        case Seq(first, second):
            return Seq(oracle_symmetric_form(first), second)
        case Protected(body):
            return Protected(oracle_symmetric_form(body))
        case Par():
            sides = sorted(map(oracle_symmetric_form, _oracle_par_sides(s)),
                           key=_oracle_term_key)
            return functools.reduce(Par, sides)
    return s


# ---------------------------------------------------------------------------
# The step relation with `match` dispatch: contraction, rebuilding,
# persistence and interference as written before the per-node functions
# dispatched on the exact class, driven by `oracle_redex_positions`.

_ORACLE_EXPR_REDEXES = (Var, Add, Sub, Mul, Eq, Le, And, Not)
_ORACLE_NUMERAL_LIMIT = 10 ** MAX_NUMERAL_DIGITS


class _OracleStuck(Exception):
    def __init__(self, at, reason):
        self.info = StuckInfo(at, reason)
        super().__init__(reason)


def _oracle_hole_class(ctx):
    node = ctx[-1][0]
    if isinstance(node, (Add, Sub, Mul, Eq, Le)):
        return (NatLit,)
    if isinstance(node, (And, Not, If)):
        return TrueLit, FalseLit
    return NatLit, TrueLit, FalseLit


def _oracle_resolve_var(store, var, hole):
    try:
        value = envmod.lookup_var(store, var.name)
    except UnboundError:
        raise _OracleStuck(var, f"unbound variable {var.name}") from None
    if isinstance(value, hole):
        return value
    raise _OracleStuck(var, "operand of wrong shape")


def _oracle_nat_operands(redex):
    left, right = redex.left, redex.right
    if isinstance(left, NatLit) and isinstance(right, NatLit):
        return left.n, right.n
    raise _OracleStuck(redex, "operand of wrong shape")


def _oracle_numeral(n):
    if n >= _ORACLE_NUMERAL_LIMIT:
        raise NumeralOverflow(f"a numeral exceeds {MAX_NUMERAL_DIGITS} digits")
    return NatLit(n)


_ORACLE_NAT_AXIOMS = {
    Add: ("Expr-Add", lambda a, b: _oracle_numeral(a + b)),
    Sub: ("Expr-Sub", lambda a, b: NatLit(max(0, a - b))),
    Mul: ("Expr-Mul", lambda a, b: _oracle_numeral(a * b)),
    Eq: ("Expr-Eq", lambda a, b: TRUE if a == b else FALSE),
    Le: ("Expr-Le", lambda a, b: TRUE if a <= b else FALSE),
}


def _oracle_contract_expr(store, redex, hole):
    match redex:
        case Var(_):
            return "Expr-Var", _oracle_resolve_var(store, redex, hole)
        case Add() | Sub() | Mul() | Eq() | Le():
            axiom, op = _ORACLE_NAT_AXIOMS[type(redex)]
            return axiom, op(*_oracle_nat_operands(redex))
        case And(left, right):
            if isinstance(left, (TrueLit, FalseLit)) and \
                    isinstance(right, (TrueLit, FalseLit)):
                both = isinstance(left, TrueLit) and isinstance(right, TrueLit)
                return "Expr-And", TRUE if both else FALSE
            raise _OracleStuck(redex, "operand of wrong shape")
        case Not(operand):
            if isinstance(operand, (TrueLit, FalseLit)):
                return "Expr-Not", FALSE if isinstance(operand, TrueLit) else TRUE
            raise _OracleStuck(redex, "operand of wrong shape")
    raise TypeError(f"not an expression redex: {redex!r}")


def _oracle_desugar_begin(block):
    items = [BeginScope()]
    items += list(block.decls)
    items += list(block.procs)
    items += [block.body, EndScope()]
    stmt = items[-1]
    for item in reversed(items[:-1]):
        stmt = Seq(item, stmt)
    return stmt


def _oracle_contract_stmt(store, procs, redex):
    match redex:
        case Decl(_, name, rhs):
            try:
                store2 = envmod.declare_var(store, name, rhs)
            except RedeclError:
                raise _OracleStuck(
                    redex, f"variable {name} already declared in this scope"
                ) from None
            return "Assign", VOID_STMT, store2, procs
        case Update(name, rhs):
            try:
                store2 = envmod.update_var(store, name, rhs)
            except UnboundError:
                raise _OracleStuck(redex, f"unbound variable {name}") from None
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
            return "Begin", _oracle_desugar_begin(redex), store, procs
        case BeginScope():
            store2, procs2 = envmod.push_scope(store, procs)
            return "BeginScope", VOID_STMT, store2, procs2
        case EndScope():
            try:
                store2, procs2 = envmod.pop_scope(store, procs)
            except ScopeError:
                raise _OracleStuck(redex, "cannot pop the global scope") from None
            return "EndScope", VOID_STMT, store2, procs2
        case ProcDecl(name, body):
            try:
                procs2 = envmod.declare_proc(procs, name, body)
            except RedeclError:
                raise _OracleStuck(
                    redex, f"procedure {name} already declared in this scope"
                ) from None
            return "Proc", VOID_STMT, store, procs2
        case Call(name):
            try:
                body = envmod.lookup_proc(procs, name)
            except UnboundError:
                raise _OracleStuck(redex, f"unbound procedure {name}") from None
            return "Call", body, store, procs
        case Protect(body):
            return "Protect", Protected(body), store, procs
        case Protected(ValStmt(_)):
            return "Protected", VOID_STMT, store, procs
        case ExprStmt(e):
            return "Expr-Val", ValStmt(e), store, procs
    raise TypeError(f"not a statement redex: {redex!r}")


def _oracle_plug_frame(node, field, filled):
    match node:
        case Update(name, _):
            return Update(name, filled)
        case Decl(t, name, _):
            return Decl(t, name, filled)
        case If(_, then_branch, else_branch):
            return If(filled, then_branch, else_branch)
        case Add() | Sub() | Mul() | Eq() | Le() | And():
            if field == "left":
                return type(node)(filled, node.right)
            return type(node)(node.left, filled)
        case Not():
            return Not(filled)
        case Seq(_, second):
            return Seq(filled, second)
        case Par(left, right):
            return Par(filled, right) if field == "left" else Par(left, filled)
        case Protected():
            return Protected(filled)
        case ExprStmt():
            return ExprStmt(filled)
    raise TypeError(f"not a frame: {(node, field)!r}")


def _oracle_rebuild(ctx, filled, axiom):
    components = []
    current = filled
    for node, field in reversed(ctx):
        match node:
            case Seq(_, rest):
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
                current = _oracle_plug_frame(node, field, current)
    components.reverse()
    components.append(axiom)
    return "/".join(components), current


_ORACLE_PURE_AXIOMS = frozenset({
    "Expr-Add", "Expr-Sub", "Expr-Mul", "Expr-Eq", "Expr-Le", "Expr-And",
    "Expr-Not", "Expr-Val", "Seq-discharge", "If-True", "If-False", "While",
    "Begin", "Empty",
})

_ORACLE_INTERFERING = (Protect, Protected, Call, Decl, Begin, BeginScope,
                       EndScope, ProcDecl)


def _oracle_interferes(s, name):
    todo = [s]
    while todo:
        node = todo.pop()
        if isinstance(node, _ORACLE_INTERFERING):
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


def _oracle_persistent(ctx, redex, axiom, contractum):
    if axiom in _ORACLE_PURE_AXIOMS:
        name = None
    elif axiom in ("Expr-Var", "Update"):
        name = redex.name
    else:
        return False
    if oracle_protected(contractum):
        return False
    for node, field in ctx:
        match node:
            case Par(left, right):
                if _oracle_interferes(right if field == "left" else left, name):
                    return False
            case Seq(_, rest):
                if oracle_protected(rest):
                    return False
    return True


def oracle_step(c: Configuration, reduce: bool):
    """(results, stuck) of one configuration: every step, or the first
    persistent one alone under `reduce`, and every stuck redex met."""
    contracted = []
    stuck = []
    for ctx, redex in oracle_redex_positions(c.stmt):
        try:
            if isinstance(redex, _ORACLE_EXPR_REDEXES):
                axiom, contractum = _oracle_contract_expr(
                    c.store, redex, _oracle_hole_class(ctx))
                store2, procs2 = c.store, c.procs
            else:
                axiom, contractum, store2, procs2 = \
                    _oracle_contract_stmt(c.store, c.procs, redex)
        except _OracleStuck as failure:
            stuck.append(failure.info)
            continue
        step = (ctx, contractum, axiom, store2, procs2)
        if reduce and _oracle_persistent(ctx, redex, axiom, contractum):
            contracted = [step]
            break
        contracted.append(step)
    results = []
    for ctx, contractum, axiom, store2, procs2 in contracted:
        rule, stmt2 = _oracle_rebuild(ctx, contractum, axiom)
        results.append((rule, Configuration(store2, procs2, stmt2)))
    if not results and not stuck and not isinstance(c.stmt, ValStmt):
        stuck.append(StuckInfo(oracle_symmetric_form(c.stmt),
                               "no applicable reduction"))
    return results, stuck


def oracle_diagnose(c: Configuration):
    results, stuck = oracle_step(c, False)
    if results or isinstance(c.stmt, ValStmt):
        return None
    return stuck[0]


# ---------------------------------------------------------------------------
# The printers with `match` dispatch and no memo.

def oracle_pretty(s: Stmt, level: int = 0) -> str:
    """Statement levels: 0 par, 1 `;`, 2 simple; braces regroup."""
    pp = oracle_pretty
    match s:
        case Par(left, right):
            text = f"{pp(left, 0)} par {pp(right, 1)}"
            return "{ " + text + " }" if level > 0 else text
        case Seq(first, second):
            text = f"{pp(first, 2)}; {pp(second, 1)}"
            return "{ " + text + " }" if level > 1 else text
        case If(cond, then_branch, else_branch):
            return (f"if {oracle_pretty_expr(cond)} then {pp(then_branch, 2)}"
                    f" else {pp(else_branch, 2)}")
        case While(cond, body):
            return f"while {oracle_pretty_expr(cond)} do {pp(body, 2)}"
        case Decl(t, name, rhs):
            return f"var {t.value} {name} := {oracle_pretty_expr(rhs)}"
        case Update(name, rhs):
            return f"{name} := {oracle_pretty_expr(rhs)}"
        case ProcDecl(name, body):
            return f"proc {name} is {pp(body, 2)}"
        case Begin(decls, procs, body):
            body_text = pp(body, 1)
            if not procs and isinstance(body, Seq) and isinstance(body.first, Decl):
                body_text = "{ " + body_text + " }"
            items = [pp(d, 2) for d in decls] + [pp(p, 2) for p in procs]
            return "begin " + "; ".join(items + [body_text]) + " end"
        case Call(name):
            return f"call {name}"
        case Protect(body):
            return f"protect {pp(body, 0)} end"
        case Protected(body):
            return f"protected {pp(body, 0)} end"
        case BeginScope():
            return "beginscope"
        case EndScope():
            return "endscope"
        case ExprStmt(e):
            return oracle_pretty_expr(e)
        case ValStmt(VoidV()):
            return "void"
        case ValStmt(v):
            return oracle_pretty_expr(v)
        case Empty():
            return "ε"
    raise TypeError(f"not a statement: {s!r}")


def oracle_pretty_expr(e, level: int = 0) -> str:
    """Expression levels: 0 and, 1 comparison, 2 additive, 3 `*`, 4 not."""
    pp = oracle_pretty_expr

    def infix(text, own):
        return f"({text})" if own < level else text

    match e:
        case NatLit(n):
            return str(n)
        case Var(name):
            return name
        case TrueLit():
            return "true"
        case FalseLit():
            return "false"
        case Add(a, b):
            return infix(f"{pp(a, 2)} + {pp(b, 3)}", 2)
        case Sub(a, b):
            return infix(f"{pp(a, 2)} - {pp(b, 3)}", 2)
        case Mul(a, b):
            return infix(f"{pp(a, 3)} * {pp(b, 4)}", 3)
        case Eq(a, b):
            return infix(f"{pp(a, 2)} = {pp(b, 2)}", 1)
        case Le(a, b):
            return infix(f"{pp(a, 2)} <= {pp(b, 2)}", 1)
        case And(a, b):
            return infix(f"{pp(a, 1)} and {pp(b, 0)}", 0)
        case Not(b):
            return infix(f"not {pp(b, 4)}", 4)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# The recursive-descent parser with one method per expression precedence
# level and its own operator and sort tables.

_ORACLE_BINARY = {"=": Eq, "<=": Le, "+": Add, "-": Sub}
_ORACLE_BOOLEAN = (TrueLit, FalseLit, Not, And, Eq, Le)


@dataclass
class _OracleParser:
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
        e = self.parse_and()
        self.check_sort(e, isinstance(e, _ORACLE_BOOLEAN))
        return e

    def parse_bexp(self) -> Expr:
        e = self.parse_and()
        self.check_sort(e, True)
        return e

    def placed(self, e: Expr, tok: Token) -> Expr:
        self.positions[id(e)] = (e, tok)
        return e

    def parse_and(self) -> Expr:
        left = self.parse_cmp()
        if self.at("keyword", "and"):
            tok = self.advance()
            return self.placed(And(left, self.parse_and()), tok)
        return left

    def parse_cmp(self) -> Expr:
        left = self.parse_add()
        if self.at("symbol", "=") or self.at("symbol", "<="):
            tok = self.advance()
            return self.placed(_ORACLE_BINARY[tok.text](left, self.parse_add()), tok)
        return left

    def parse_add(self) -> Expr:
        left = self.parse_mul()
        while self.at("symbol", "+") or self.at("symbol", "-"):
            tok = self.advance()
            left = self.placed(_ORACLE_BINARY[tok.text](left, self.parse_mul()), tok)
        return left

    def parse_mul(self) -> Expr:
        left = self.parse_unary()
        while self.at("symbol", "*"):
            tok = self.advance()
            left = self.placed(Mul(left, self.parse_unary()), tok)
        return left

    def parse_unary(self) -> Expr:
        if self.at("keyword", "not"):
            tok = self.advance()
            return self.placed(Not(self.parse_unary()), tok)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        # Each literal is a fresh node, so each has its own position.
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return self.placed(NatLit(int(tok.text)), tok)
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return self.placed(TrueLit() if tok.text == "true" else FalseLit(), tok)
        if tok.kind == "symbol" and tok.text == "(":
            self.advance()
            inner = self.parse_and()
            self.expect("symbol", ")")
            return inner
        self.fail(frozenset({"number", "identifier", "true", "false", "("}))

    def check_sort(self, e: Expr, boolean: bool) -> None:
        """Raise at the first node of `e`, root first and left to right, whose
        sort is not the one its position takes; a variable takes either."""
        if isinstance(e, Var):
            return
        if isinstance(e, _ORACLE_BOOLEAN) != boolean:
            tok = self.positions[id(e)][1]
            message = ("arithmetic expression in boolean position" if boolean
                       else "boolean expression in arithmetic position")
            raise ParseError(message, tok.line, tok.column)
        if isinstance(e, Not):
            self.check_sort(e.operand, True)
        elif not is_value_node(e):
            self.check_sort(e.left, isinstance(e, And))
            self.check_sort(e.right, isinstance(e, And))


def oracle_parse_program(text: str) -> Stmt:
    return _OracleParser(tokenize(text)).parse_program()
