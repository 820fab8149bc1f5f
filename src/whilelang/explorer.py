"""Drivers for the step relation.

`run` follows one schedule (first successor, or seeded uniform choice) to a
terminal, stuck, or budget-exhausted end and records the trace. `explore`
builds the whole reduction graph over all interleavings breadth-first,
deduplicating configurations by structural equality, so loops show up as
cycles instead of unbounded unrolling; `explore(..., reduce=True)` builds
the partial-order and symmetry reduced graph instead, which has the same
leaves up to the order of par sides. `outcomes` collects the graph's
leaves, `to_dot` and `to_json_trace`
serialize graph and trace in stable orders so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import json
import random
from collections import deque
from json.encoder import encode_basestring_ascii as _json_str
from typing import Union

from .env import render_procs, render_store
from .semantics import (
    Configuration, StuckInfo, diagnose, is_terminal, stuck_redexes,
    successors,
)
from .syntax import (
    EXPR_CLASSES, Printer, Redex, Value, pretty, pretty_expr, record,
    symmetric_form, value_text,
)

DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_STATES = 50_000
DEFAULT_MAX_DEPTH = 10_000


@record
class Terminated:
    value: Value
    kind = "terminated"


@record
class Stuck:
    info: StuckInfo
    kind = "stuck"


@record
class BudgetExceeded:
    kind = "budget_exceeded"


Status = Union[Terminated, Stuck, BudgetExceeded]


@record
class Trace:
    """A run from `origin`; each step is a `(rule, configuration)` pair."""
    origin: Configuration
    steps: tuple[tuple[str, Configuration], ...]
    status: Status


def run(c0: Configuration, schedule: str = "first", seed: int = 0,
        max_steps: int = DEFAULT_MAX_STEPS) -> Trace:
    """Reduce from `c0` under one schedule until done, stuck, or out of budget.

    "first" always takes the first successor (the left par side steps
    before the right); "random" draws uniformly with a fixed-seed generator
    so reruns reproduce the trace. `Trace.steps` holds each chosen
    `(rule, configuration)` pair of `successors` as it is.
    """
    if max_steps < 1:
        raise ValueError("budgets must be at least 1")
    if schedule not in ("first", "random"):
        raise ValueError(f"unknown schedule {schedule!r}")
    rng = random.Random(seed)
    steps: list[tuple[str, Configuration]] = []
    current = c0
    while True:
        if is_terminal(current):
            return Trace(c0, tuple(steps), Terminated(current.stmt.value))
        options = successors(current)
        if not options:
            return Trace(c0, tuple(steps), Stuck(diagnose(current)))
        if len(steps) >= max_steps:
            return Trace(c0, tuple(steps), BudgetExceeded())
        chosen = options[0] if schedule == "first" else rng.choice(options)
        steps.append(chosen)
        current = chosen[1]


@record
class ReductionGraph:
    nodes: tuple[Configuration, ...]
    edges: tuple[tuple[int, str, int], ...]
    truncated: bool
    unexpanded: frozenset[int]


def explore(c0: Configuration, max_states: int = DEFAULT_MAX_STATES,
            max_depth: int = DEFAULT_MAX_DEPTH,
            reduce: bool = False) -> ReductionGraph:
    """Breadth-first closure of the step relation from `c0`.

    Nodes are deduplicated configurations in discovery order; edges carry
    rule labels. `truncated` is set exactly when a budget cut something
    off: a new configuration was not admitted, or a node at the depth
    limit still had successors.

    With `reduce`, each state is expanded by `successors(c, reduce=True)`:
    one persistent step where there is one, all steps otherwise. The root
    and every successor are taken in `symmetric_form` before the index is
    probed, so states that differ only in the order of par sides are one
    node. The graph then lacks interleavings and permutations but keeps
    every terminal and stuck leaf (in symmetric form), so `outcomes` of it
    is that of the full graph; the budgets count its states and depth, so
    a program whose full graph would exceed them can still be explored
    completely.
    """
    if max_states < 1 or max_depth < 1:
        raise ValueError("budgets must be at least 1")
    if reduce:
        c0 = _symmetric(c0)
    index = {c0: 0}
    nodes = [c0]
    depth = [0]
    edges: list[tuple[int, str, int]] = []
    unexpanded: set[int] = set()
    frontier = deque([0])
    while frontier:
        src = frontier.popleft()
        options = successors(nodes[src], reduce)
        if depth[src] >= max_depth:
            if options:
                unexpanded.add(src)
            continue
        for rule, nxt in options:
            nxt = _symmetric(nxt) if reduce else nxt
            # One hash and lookup per successor: a new state takes the
            # next index, and the entry is taken back if the budget is full.
            dst = index.setdefault(nxt, len(nodes))
            if dst == len(nodes):
                if dst >= max_states:
                    del index[nxt]
                    unexpanded.add(src)
                    continue
                nodes.append(nxt)
                depth.append(depth[src] + 1)
                frontier.append(dst)
            edges.append((src, rule, dst))
    return ReductionGraph(tuple(nodes), tuple(edges), bool(unexpanded),
                          frozenset(unexpanded))


def _symmetric(c: Configuration) -> Configuration:
    stmt = symmetric_form(c.stmt)
    return c if stmt is c.stmt else Configuration(c.store, c.procs, stmt)


@record
class OutcomeSet:
    terminals: frozenset[tuple[Value, str]]
    stuck: frozenset[StuckInfo]
    complete: bool


def outcomes(g: ReductionGraph) -> OutcomeSet:
    """Terminal values with their final stores, and every stuck redex of
    each stuck leaf.

    Nodes whose expansion a budget skipped are not leaves and contribute
    nothing; `complete` records whether the graph covered everything. A
    reduced graph (`explore(..., reduce=True)`) gives the same set as the
    full one whenever both are complete: a leaf's stuck redexes, unlike
    the first of them, do not depend on the order of its par sides.
    """
    has_out = {src for src, _, _ in g.edges}
    terminals = set()
    stuck = set()
    for i, node in enumerate(g.nodes):
        if i in has_out or i in g.unexpanded:
            continue
        if is_terminal(node):
            terminals.add((node.stmt.value, render_store(node.store)))
        else:
            stuck.update(stuck_redexes(node))
    return OutcomeSet(frozenset(terminals), frozenset(stuck),
                      complete=not g.truncated)


# ---------------------------------------------------------------------------
# Serialization

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: ReductionGraph) -> str:
    """Graphviz rendering: node labels show statement and store, edges the
    rule path; the root is outlined bold. Discovery order throughout.

    The labels are printed in that order through one `Printer`, so a
    subterm shared by neighbouring nodes is printed once; the text is the
    same as `pretty` of each node gives."""
    printer = Printer()
    lines = ["digraph reduction {"]
    for i, node in enumerate(g.nodes):
        label = (_dot_escape(printer.stmt(node.stmt)) + "\\n"
                 + _dot_escape(render_store(node.store)))
        printer.advance()
        style = ", penwidth=2" if i == 0 else ""
        lines.append(f'  n{i} [label="{label}"{style}];')
    for src, rule, dst in g.edges:
        lines.append(f'  n{src} -> n{dst} [label="{_dot_escape(rule)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _status_line(t: Trace) -> dict:
    line: dict = {"status": t.status.kind, "steps": len(t.steps)}
    match t.status:
        case Terminated(value):
            line["value"] = value_text(value)
        case Stuck(info):
            line["reason"] = info.reason
            line["at"] = _render_redex(info.at)
    return line


def _render_redex(at: Redex) -> str:
    if isinstance(at, EXPR_CLASSES):
        return pretty_expr(at)
    return pretty(at)


def to_json_trace(t: Trace) -> str:
    """One JSON object per step plus a final status line.

    Consecutive configurations share most of their nodes, so the statements
    are printed in order through one `Printer`, which prints a shared
    subterm once, and a store or procedure store that is the same object as
    the step before's is not rendered or encoded again. Each step line is
    filled in from those JSON strings; it is byte for byte the line that
    `json.dumps` of the step's dict, with `pretty`, `render_store` and
    `render_procs` of the step, gives."""
    printer = Printer()
    store = procs = None
    rules: dict[str, str] = {}
    lines = []
    for n, (rule, conf) in enumerate(t.steps, start=1):
        if conf.store is not store:
            store, store_json = conf.store, _json_str(render_store(conf.store))
        if conf.procs is not procs:
            procs, procs_json = conf.procs, _json_str(render_procs(conf.procs))
        rule_json = rules.get(rule)
        if rule_json is None:
            rule_json = rules[rule] = _json_str(rule)
        lines.append(f'{{"step": {n}, "rule": {rule_json}, '
                     f'"stmt": {_json_str(printer.stmt(conf.stmt))}, '
                     f'"store": {store_json}, "procs": {procs_json}}}')
        printer.advance()
    lines.append(json.dumps(_status_line(t)))
    return "\n".join(lines) + "\n"
