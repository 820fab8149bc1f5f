"""Independent reference implementations the fast paths are checked against.

Everything here trades speed for obviousness and deliberately avoids the
library's decomposition/graph machinery.
"""

from collections import deque

from whilelang import env as envmod
from whilelang.env import (
    Env, RedeclError, ScopeError, UnboundError, render_procs, render_store,
)
from whilelang.parser import KEYWORDS, ParseError, Token
from whilelang.semantics import (
    Configuration, NumeralOverflow, StepResult, StuckInfo, successors,
)
from whilelang.syntax import (
    Add, And, Begin, BeginScope, Call, Decl, Empty, EndScope, Eq, ExprStmt,
    FalseLit, Le, Mul, NatLit, Not, Par, ProcDecl, Protect, Protected, Seq,
    Stmt, Sub, TrueLit, Update, ValStmt, Var, VoidV, While, If,
    MAX_NUMERAL_DIGITS, TRUE, FALSE, VOID_STMT, pretty, pretty_expr,
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
        for key, value in frame.entries:
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
        for step in successors(c):
            stack.append(step.next)
    return seen


def oracle_explore(c0: Configuration, max_states: int, max_depth: int,
                   reduce: bool):
    """The explorer's breadth-first search with a membership test before
    each insertion and depths in a dict: (nodes, edges, truncated,
    unexpanded) as `explore` returns them."""
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
        for step in options:
            target = step.next
            if target in index:
                edges.append((src, step.rule, index[target]))
                continue
            if len(nodes) >= max_states:
                truncated = True
                unexpanded.add(src)
                continue
            index[target] = len(nodes)
            depth[len(nodes)] = depth[src] + 1
            nodes.append(target)
            edges.append((src, step.rule, index[target]))
            frontier.append(index[target])
    return tuple(nodes), tuple(edges), truncated, frozenset(unexpanded)


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
        results.append(StepResult(rule, Configuration(store2, procs2, stmt2)))
    if not results and not stuck and not isinstance(c.stmt, ValStmt):
        stuck.append(StuckInfo(c.stmt, "no applicable reduction"))
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
