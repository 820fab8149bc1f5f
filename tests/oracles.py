"""Independent reference implementations the fast paths are checked against.

Everything here trades speed for obviousness and deliberately avoids the
library's decomposition/graph machinery.
"""

from collections import deque

from whilelang.env import Env, render_procs, render_store
from whilelang.parser import KEYWORDS, ParseError, Token
from whilelang.semantics import Configuration, successors
from whilelang.syntax import (
    Add, And, Begin, BeginScope, Call, Decl, Empty, EndScope, Eq, ExprStmt,
    FalseLit, Le, Mul, NatLit, Not, Par, ProcDecl, Protect, Protected, Seq,
    Stmt, Sub, TrueLit, Update, ValStmt, Var, While, If, MAX_NUMERAL_DIGITS,
    pretty, pretty_expr,
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
