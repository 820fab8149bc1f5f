"""Spans recorded around whilelang's module boundaries, for the traced run.

`Tracer.install` replaces each function listed in BOUNDARIES by a wrapper
in the namespace its caller looks it up in (`from .semantics import
successors` binds `whilelang.explorer.successors`, so that is the attribute
to wrap). A span is (boundary, start, end, parent span, items): items is
len() of a returned list, the count the layer produced. `uninstall`
restores every original attribute. Nothing is wrapped in an untraced run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict, deque

# (module, attribute, layer key). The key groups wrappers of one function
# seen from several modules, e.g. pretty as called by cli, explorer, env
# and typesys.
BOUNDARIES = [
    ("whilelang.cli", "main", "cli.main"),
    ("whilelang.cli", "parse_program", "parser.parse_program"),
    ("whilelang.parser", "tokenize", "parser.tokenize"),
    ("whilelang.cli", "check_program", "typesys.check"),
    ("whilelang.cli", "render_derivation", "typesys.render"),
    ("whilelang.semantics", "decompose", "syntax.decompose"),
    ("whilelang.cli", "pretty", "syntax.pretty"),
    ("whilelang.explorer", "pretty", "syntax.pretty"),
    ("whilelang.explorer", "pretty_expr", "syntax.pretty"),
    ("whilelang.env", "pretty", "syntax.pretty"),
    ("whilelang.typesys", "pretty", "syntax.pretty"),
    ("whilelang.typesys", "pretty_expr", "syntax.pretty"),
    ("whilelang.explorer", "successors", "semantics.successors"),
    ("whilelang.explorer", "diagnose", "semantics.diagnose"),
    ("whilelang.semantics", "contract_expr", "semantics.contract"),
    ("whilelang.semantics", "contract_stmt", "semantics.contract"),
    ("whilelang.env", "lookup_var", "env.lookup"),
    ("whilelang.env", "lookup_proc", "env.lookup"),
    ("whilelang.env", "update_var", "env.update"),
    ("whilelang.env", "declare_var", "env.declare"),
    ("whilelang.env", "declare_proc", "env.declare"),
    ("whilelang.env", "push_scope", "env.scope"),
    ("whilelang.env", "pop_scope", "env.scope"),
    ("whilelang.cli", "render_store", "env.render"),
    ("whilelang.explorer", "render_store", "env.render"),
    ("whilelang.explorer", "render_procs", "env.render"),
    ("whilelang.cli", "explore", "explorer.explore"),
    ("whilelang.cli", "run", "explorer.run"),
    ("whilelang.cli", "outcomes", "explorer.outcomes"),
    ("whilelang.cli", "to_dot", "explorer.to_dot"),
    ("whilelang.cli", "to_json_trace", "explorer.to_json_trace"),
]

# Harness bookkeeping done inside a parent span (walking a derivation,
# measuring a graph's depth) is recorded under this key, so that it counts
# as a child and never as the parent's self time.
HARNESS = "harness"


def _judgments(root) -> int:
    count, todo = 0, [root]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(node.children)
    return count


def _max_depth(graph) -> int:
    succ = defaultdict(list)
    for src, _, dst in graph.edges:
        succ[src].append(dst)
    depth = {0: 0}
    todo = deque([0])
    while todo:
        node = todo.popleft()
        for nxt in succ[node]:
            if nxt not in depth:
                depth[nxt] = depth[node] + 1
                todo.append(nxt)
    return max(depth.values())


def _count_result(key: str, result, counts: dict) -> None:
    """Counts read off a boundary's return value."""
    if key == "typesys.check":
        counts["judgments"] += _judgments(result)
    elif key == "typesys.render":
        counts["derivation_bytes"] += len(result.encode("utf-8"))
    elif key == "explorer.explore":
        counts["states"] += len(result.nodes)
        counts["edges"] += len(result.edges)
        counts["max_depth"] = max(counts["max_depth"], _max_depth(result))
    elif key == "explorer.run":
        counts["steps"] += len(result.steps)


_COUNTED = {"typesys.check", "typesys.render", "explorer.explore",
            "explorer.run"}


class Tracer:
    def __init__(self) -> None:
        self.keys: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _key_id(self, key: str) -> int:
        if key not in self.keys:
            self.keys.append(key)
        return self.keys.index(key)

    def _wrap(self, original, key: str):
        key_id = self._key_id(key)
        harness_id = self._key_id(HARNESS)
        counted = key in _COUNTED
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                items = len(result) if type(result) is list else 0
                spans[index] = (key_id, start, end, parent, items)
                if counted and result is not None:
                    _count_result(key, result, tracer.counts)
                    spans.append((harness_id, end, clock(), parent, 0))

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, key in BOUNDARIES:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, key))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def summary(self) -> dict:
        """Per key: calls, total seconds, self seconds (total minus direct
        children) and items; under `_under`, items per (parent key, child
        key), e.g. successor results found inside explore."""
        keys = self.keys
        calls = defaultdict(int)
        total = defaultdict(float)
        items = defaultdict(int)
        spans = self.spans
        for key_id, start, end, parent, n in spans:
            calls[key_id] += 1
            total[key_id] += end - start
            items[key_id] += n
        self_time = defaultdict(float, total)
        under = defaultdict(int)
        for key_id, start, end, parent, n in spans:
            if parent >= 0:
                parent_key = spans[parent][0]
                self_time[parent_key] -= end - start
                under[(keys[parent_key], keys[key_id])] += n
        out = {}
        for key_id, key in enumerate(keys):
            out[key] = {"calls": calls[key_id], "total_s": total[key_id],
                        "self_s": self_time[key_id], "items": items[key_id]}
        out["_under"] = dict(under)
        return out


def installed_attributes() -> dict:
    """Identity of every boundary attribute, to show uninstall restored it."""
    return {(m, a): id(getattr(sys.modules[m], a)) for m, a, _ in BOUNDARIES}
