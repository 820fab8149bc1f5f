"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line on the real stdout so the verdicts are
visible regardless of capture settings. Property criteria run at least
1000 generated cases each with a fixed seed.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import (
    SEEDED_STORE, parfree_runtime_stmts, parfree_source_stmts, runtime_stmts,
    source_stmts,
)

from whilelang.env import Env, lookup_var, parse_store, render_store
from whilelang.explorer import (
    Stuck, Terminated, explore, outcomes, run, to_dot, to_json_trace,
)
from whilelang.parser import parse_program
from whilelang.semantics import Configuration, successors
from whilelang.syntax import (
    NatLit, TypeName, VoidV, decompose, plug, pretty,
)
from whilelang.typesys import (
    TypeCheckError, TypeEnv, check_program, render_derivation, type_of_expr,
)
from whilelang.typesys import ProcTypeEnv
from strategies import exprs

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

PROPERTY_SETTINGS = settings(max_examples=1000, deadline=None,
                             derandomize=True)


def announce(number, name):
    """Decorator printing one PASS/FAIL line per criterion."""
    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL  {name}", file=sys.__stdout__)
                raise
            print(f"ACCEPTANCE {number} PASS  {name}", file=sys.__stdout__)
            return result
        inner.__name__ = fn.__name__
        return inner
    return wrap


def timed(limit_seconds, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"took {elapsed:.2f}s, limit {limit_seconds}s"
    return result


# -- criterion 1: golden block trace ----------------------------------------

GOLDEN_TEXT = "begin var Nat a := 4; b := 2 end"
GOLDEN_STORES = [
    "({a=3, b=5})",
    "({a=3, b=5}, {})",
    "({a=3, b=5}, {a=4})",
    "({a=3, b=2}, {a=4})",
    "({a=3, b=2})",
]


def _golden_trace():
    c0 = Configuration(parse_store("({a=3, b=5})"), Env(),
                       parse_program(GOLDEN_TEXT))
    return run(c0)


@announce(1, "golden block trace passes the exact store column")
def test_criterion_1_golden_trace():
    trace = timed(1.0, _golden_trace)
    stores = [render_store(c.store)
              for c in [trace.origin] + [c for _, c in trace.steps]]
    deduped = [stores[0]] + [s for prev, s in zip(stores, stores[1:])
                             if s != prev]
    assert deduped == GOLDEN_STORES
    lines = [json.loads(line) for line in to_json_trace(trace).splitlines()]
    assert [x["store"] for x in lines[:-1]] == GOLDEN_STORES
    assert trace.status == Terminated(VoidV())


# -- criterion 2: typing verdicts --------------------------------------------

TYPING_OK = [
    ("if not true then var Nat y := 2 else var Nat z := 4",
     (("y", TypeName.NAT), ("z", TypeName.NAT))),
    ("var Nat x := 1; while x <= 4 do x := x + 1",
     (("x", TypeName.NAT),)),
]
TYPING_BLOCK = ("begin var Nat x := 2; var Bool y := true"
                " proc q is var Nat y := 1 call q; x := y end")
TYPING_BAD = ("var Nat y := 1;"
              " begin var Nat x := 2; var Bool y := true x := x + y end")


def _check_typing_examples():
    for text, bindings in TYPING_OK:
        judgment = check_program(parse_program(text))
        assert judgment.gamma_out == TypeEnv(bindings), text

    block = check_program(parse_program(TYPING_BLOCK))

    def find(j, rule):
        if j.rule == rule:
            return j
        for child in j.children:
            hit = find(child, rule)
            if hit:
                return hit

    proc = find(block, "T-Proc")
    assert proc.delta_out.lookup("q") == TypeEnv((("y", TypeName.NAT),))

    with pytest.raises(TypeCheckError) as info:
        check_program(parse_program(TYPING_BAD))
    assert str(info.value) == "error[T-Add] at x + y: expected Nat, found Bool"


@announce(2, "typing examples accepted/rejected with exact environments")
def test_criterion_2_typing_verdicts():
    timed(1.0, _check_typing_examples)


# -- criteria 3 and 4: atomicity outcome sets --------------------------------

ATOMIC_TEXT = "var Nat x := 0; { protect x := x + 1; x := x * 2 end } par x := 10"
ATOMIC_UNPROTECTED = "var Nat x := 0; { x := x + 1; x := x * 2 } par x := 10"
PROTECT_RACE_TEXT = "var Nat x := 0; protect x := 2; x := 4 end par x := 6"


def _final_nat_values(text):
    c0 = Configuration(Env(), Env(), parse_program(text))
    graph = explore(c0)
    summary = outcomes(graph)
    assert summary.complete
    assert not summary.stuck
    finals = set()
    for _, store in summary.terminals:
        env = parse_store(store)
        finals.add(lookup_var(env, "x").n)
    return finals


@announce(3, "atomic region outcomes {10, 22}; unprotected strictly larger")
def test_criterion_3_atomicity_outcomes():
    def check():
        protected = _final_nat_values(ATOMIC_TEXT)
        unprotected = _final_nat_values(ATOMIC_UNPROTECTED)
        assert protected == {10, 22}
        assert protected < unprotected
        assert 20 in unprotected
    timed(5.0, check)


@announce(4, "protect/par example outcomes {4, 6}, complete graph")
def test_criterion_4_protect_race_outcomes():
    def check():
        assert _final_nat_values(PROTECT_RACE_TEXT) == {4, 6}
    timed(5.0, check)


# -- criterion 5: property suites (>= 1000 cases each, fixed seed) -----------

TYPING_GAMMA = TypeEnv((("a", TypeName.NAT), ("b", TypeName.NAT),
                        ("c", TypeName.NAT), ("x", TypeName.NAT),
                        ("y", TypeName.BOOL), ("z", TypeName.BOOL),
                        ("w", TypeName.NAT)))


def _each_judgment(j):
    yield j
    for child in j.children:
        yield from _each_judgment(child)


def _iter_nodes(obj):
    if dataclasses.is_dataclass(obj):
        yield obj
        for f in dataclasses.fields(obj):
            yield from _iter_nodes(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _iter_nodes(item)


def _bounded_trace(stmt, schedule="first", seed=0):
    c0 = Configuration(SEEDED_STORE, Env(), stmt)
    return run(c0, schedule=schedule, seed=seed, max_steps=120)


@announce(5, "property: decompose/plug roundtrip")
@PROPERTY_SETTINGS
@given(runtime_stmts)
def test_criterion_5_decompose_plug_roundtrip(stmt):
    for ctx, redex in decompose(stmt):
        assert plug(ctx, redex) == stmt


@announce(5, "property: par-free statements decompose uniquely")
@PROPERTY_SETTINGS
@given(parfree_runtime_stmts)
def test_criterion_5_parfree_unique_decomposition(stmt):
    assert len(decompose(stmt)) <= 1


@announce(5, "property: scope balance and frame-count discipline")
@PROPERTY_SETTINGS
@given(source_stmts, st.sampled_from(["first", "random"]))
def test_criterion_5_scope_balance(stmt, schedule):
    trace = _bounded_trace(stmt, schedule=schedule, seed=11)
    depth = trace.origin.store.depth()
    assert trace.origin.procs.depth() == depth
    for rule, conf in trace.steps:
        axiom = rule.rsplit("/", 1)[-1]
        store_depth = conf.store.depth()
        assert conf.procs.depth() == store_depth
        if axiom == "BeginScope":
            assert store_depth == depth + 1
        elif axiom == "EndScope":
            assert store_depth == depth - 1
        else:
            assert store_depth == depth
        depth = store_depth
        assert depth >= 1


@announce(5, "property: par-free configurations have at most one successor")
@PROPERTY_SETTINGS
@given(parfree_source_stmts)
def test_criterion_5_parfree_single_successor(stmt):
    trace = _bounded_trace(stmt)
    for conf in [trace.origin] + [c for _, c in trace.steps]:
        assert len(successors(conf)) <= 1


@announce(5, "property: no negative numeral is ever reachable")
@PROPERTY_SETTINGS
@given(source_stmts)
def test_criterion_5_monus_safety(stmt):
    trace = _bounded_trace(stmt)
    for conf in [trace.origin] + [c for _, c in trace.steps]:
        for node in _iter_nodes(conf.stmt):
            if isinstance(node, NatLit):
                assert node.n >= 0
        for frame in conf.store.frames:
            for _, value in frame:
                if isinstance(value, NatLit):
                    assert value.n >= 0


@announce(5, "property: expression judgments never change environments")
@PROPERTY_SETTINGS
@given(exprs)
def test_criterion_5_expression_typing_purity(e):
    try:
        judgment = type_of_expr(TYPING_GAMMA, ProcTypeEnv(), e)
    except TypeCheckError:
        return
    for node in _each_judgment(judgment):
        assert node.gamma_out == node.gamma_in
        assert node.delta_out == node.delta_in


@announce(5, "property: accepted while bodies leave environments fixed")
@PROPERTY_SETTINGS
@given(source_stmts)
def test_criterion_5_while_bodies_fix_environments(stmt):
    try:
        judgment = check_program(stmt)
    except TypeCheckError:
        return
    for node in _each_judgment(judgment):
        if node.rule == "T-While":
            assert node.gamma_out == node.gamma_in
            assert node.delta_out == node.delta_in


@announce(5, "property: source round-trip parse(pretty(S)) = S")
@PROPERTY_SETTINGS
@given(source_stmts)
def test_criterion_5_source_roundtrip(stmt):
    assert parse_program(pretty(stmt)) == stmt


# -- criterion 6: empirical progress and the unsoundness registry ------------

@announce(6, "well-typed par-free corpus always terminates; registry sticks")
def test_criterion_6_progress_and_registry():
    corpus = sorted(PROGRAMS.glob("*.whl"))
    assert len(corpus) >= 20
    for path in corpus:
        stmt = parse_program(path.read_text(encoding="utf-8"))
        check_program(stmt)
        trace = run(Configuration(Env(), Env(), stmt), max_steps=10_000)
        assert isinstance(trace.status, Terminated), path.name

    registry = sorted((PROGRAMS / "counterexamples").glob("*.whl"))
    assert registry
    for path in registry:
        stmt = parse_program(path.read_text(encoding="utf-8"))
        check_program(stmt)  # accepted by the type system
        trace = run(Configuration(Env(), Env(), stmt), max_steps=10_000)
        assert isinstance(trace.status, Stuck), path.name


# -- criterion 7: determinism -------------------------------------------------

@announce(7, "criteria 1-4 artifacts are byte-identical across reruns")
def test_criterion_7_determinism():
    def artifacts():
        chunks = [to_json_trace(_golden_trace())]
        for text in (ATOMIC_TEXT, ATOMIC_UNPROTECTED, PROTECT_RACE_TEXT):
            c0 = Configuration(Env(), Env(), parse_program(text))
            graph = explore(c0)
            chunks.append(to_dot(graph))
            summary = outcomes(graph)
            chunks.append(repr(sorted(summary.terminals,
                                      key=lambda p: p[1])))
        chunks.append(render_derivation(check_program(parse_program(TYPING_BLOCK))))
        return "\n".join(chunks).encode()

    assert artifacts() == artifacts()
