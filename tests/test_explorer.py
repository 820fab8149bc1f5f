"""Traces, reduction graphs, outcome sets, and their serializations."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dfs_reachable_renderings, oracle_explore, render_config
from strategies import (
    SEEDED_STORE, names, parfree_source_stmts, runtime_stmts,
)
from test_reduction import par_programs

from whilelang.env import Env, parse_store, render_procs, render_store
from whilelang.explorer import (
    BudgetExceeded, Stuck, Terminated, explore, outcomes, run, to_dot,
    to_json_trace,
)
from whilelang.parser import parse_program
from whilelang.semantics import Configuration, NumeralOverflow, successors
from whilelang.syntax import (
    EXPR_CLASSES, Empty, Mul, NatLit, Par, Printer, Seq, TrueLit, Update,
    ValStmt, Var, VoidV, While, pretty, pretty_expr, value_text,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

VOID = ValStmt(VoidV())


def conf(text, store="({})"):
    return Configuration(parse_store(store), Env(), parse_program(text))


GOLDEN_BLOCK = "begin var Nat a := 4; b := 2 end"
GOLDEN_STORES = [
    "({a=3, b=5})",
    "({a=3, b=5}, {})",
    "({a=3, b=5}, {a=4})",
    "({a=3, b=2}, {a=4})",
    "({a=3, b=2})",
]


class TestRun:
    def test_block_trace_stores_and_rules(self):
        t = run(conf(GOLDEN_BLOCK, "({a=3, b=5})"))
        assert [rule for rule, _ in t.steps] == [
            "Begin", "Seq2/BeginScope", "Seq2/Assign", "Seq2/Update",
            "EndScope"]
        assert [render_store(c.store) for _, c in t.steps] == GOLDEN_STORES
        assert t.status == Terminated(VoidV())

    def test_zero_step_trace(self):
        c = Configuration(Env(), Env(), VOID)
        t = run(c)
        assert t.steps == ()
        assert t.status == Terminated(VoidV())

    def test_budget_exceeded_on_infinite_loop(self):
        t = run(conf("var Nat x := 0; while true do x := 1"), max_steps=50)
        assert t.status == BudgetExceeded()
        assert len(t.steps) == 50

    def test_stuck_status_carries_diagnosis(self):
        t = run(conf("x := 1"))
        assert isinstance(t.status, Stuck)
        assert t.status.info.reason == "unbound variable x"

    def test_random_schedule_is_reproducible(self):
        c = conf("var Nat x := 0; { x := x + 1 par x := 2 }")
        t1 = run(c, schedule="random", seed=7)
        t2 = run(c, schedule="random", seed=7)
        assert t1 == t2

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            run(conf("x := 1"), schedule="fair")

    def test_first_schedule_prefers_left_par_side(self):
        c = Configuration(
            Env(((("x", NatLit(0)),),)), Env(),
            Par(Update("x", NatLit(1)), Update("x", NatLit(2))))
        t = run(c)
        assert t.steps[0][0].startswith("Par2")


class TestStepsAreSuccessorPairs:
    """`Trace.steps` holds the `(rule, configuration)` pairs `successors`
    gives: under "first" the first pair of each configuration before it,
    under "random" one of its pairs, each a plain tuple."""

    @pytest.mark.parametrize(
        "path", sorted(PROGRAMS.glob("**/*.whl")),
        ids=lambda p: str(p.relative_to(PROGRAMS)))
    def test_corpus(self, path):
        c = Configuration(Env(), Env(),
                          parse_program(path.read_text(encoding="utf-8")))
        t = run(c)
        befores = [t.origin, *[nxt for _, nxt in t.steps]][:len(t.steps)]
        assert list(t.steps) == [successors(x)[0] for x in befores]
        traces = [t] + [run(c, schedule="random", seed=seed)
                        for seed in range(5)]
        for t in traces:
            before = t.origin
            for step in t.steps:
                assert type(step) is tuple and len(step) == 2
                rule, nxt = step
                assert type(rule) is str and type(nxt) is Configuration
                assert step in successors(before)
                before = nxt


class TestExplore:
    def test_linear_program_is_a_path(self):
        t = run(conf(GOLDEN_BLOCK, "({a=3, b=5})"))
        g = explore(conf(GOLDEN_BLOCK, "({a=3, b=5})"))
        assert len(g.nodes) == len(t.steps) + 1
        assert len(g.edges) == len(t.steps)
        assert not g.truncated

    def test_two_update_interleaving_counts(self):
        c = conf("x := 1 par x := 2", "({x=0})")
        g = explore(c)
        assert len(g.nodes) == 5
        assert len(g.edges) == 4
        o = outcomes(g)
        assert {store for _, store in o.terminals} == {"({x=1})", "({x=2})"}

    def test_matches_naive_dfs_dedup(self):
        for text, store in [
            ("x := 1 par x := 2", "({x=0})"),
            ("var Nat x := 0; { protect x := x + 1; x := x * 2 end } par x := 10",
             "({})"),
            ("var Nat i := 0; while i <= 2 do i := i + 1", "({})"),
        ]:
            c = conf(text, store)
            g = explore(c)
            naive = dfs_reachable_renderings(c)
            assert len(g.nodes) == len(naive)
            assert {render_config(n) for n in g.nodes} == set(naive)

    def test_while_loop_revisits_states_as_cycles(self):
        # The loop body restores the same store, so exploration closes a
        # cycle instead of unrolling forever.
        c = conf("var Nat x := 1; while x = 1 do x := 1")
        g = explore(c, max_states=500, max_depth=500)
        assert not g.truncated
        targets = {dst for _, _, dst in g.edges}
        revisited = [dst for src, _, dst in g.edges if dst <= src]
        assert revisited

    def test_state_budget_truncates(self):
        c = conf("var Nat x := 0; while true do x := x + 1")
        g = explore(c, max_states=10)
        assert g.truncated
        assert len(g.nodes) == 10
        assert not outcomes(g).complete

    def test_depth_budget_truncates(self):
        c = conf(GOLDEN_BLOCK, "({a=3, b=5})")
        g = explore(c, max_depth=2)
        assert g.truncated
        o = outcomes(g)
        assert not o.complete
        assert not o.terminals

    def test_run_first_path_is_in_graph(self):
        c = conf("var Nat x := 0; { x := 1 par x := x + 2 }")
        g = explore(c)
        t = run(c)
        index = {n: i for i, n in enumerate(g.nodes)}
        edge_set = set(g.edges)
        here = index[t.origin]
        for rule, nxt in t.steps:
            assert (here, rule, index[nxt]) in edge_set
            here = index[nxt]

    def test_budgets_validated(self):
        with pytest.raises(ValueError):
            explore(conf("x := 1"), max_states=0)

    def test_run_budget_validated(self):
        loop = conf("var Nat x := 0; while true do x := 1")
        for max_steps in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                run(loop, max_steps=max_steps)
        t = run(loop, max_steps=1)
        assert len(t.steps) == 1
        assert t.status == BudgetExceeded()

    def test_edges_sound_and_complete(self):
        c = conf("var Nat x := 0; { x := 1 par { x := x + 2; x := 5 } }")
        g = explore(c)
        assert not g.truncated
        index = {n: i for i, n in enumerate(g.nodes)}
        for i, node in enumerate(g.nodes):
            expected = {(rule, index[nxt]) for rule, nxt in successors(node)}
            actual = {(rule, dst) for src, rule, dst in g.edges if src == i}
            assert actual == expected


def _assert_explore_matches_oracle(c0, max_states, max_depth):
    for reduce in (False, True):
        g = explore(c0, max_states, max_depth, reduce)
        assert (g.nodes, g.edges, g.truncated, g.unexpanded) == \
            oracle_explore(c0, max_states, max_depth, reduce)


class TestExploreMatchesOracle:
    """`explore` looks each successor up in its index once and takes the
    entry back when the state budget refuses the state; the graph must be
    the one a membership test before each insertion builds. Small budgets
    make states be refused and then met again."""

    BUDGETS = [(50_000, 10_000), (1, 1), (2, 30), (7, 3), (23, 12), (60, 30)]

    @pytest.mark.parametrize(
        "path", sorted(PROGRAMS.glob("**/*.whl")),
        ids=lambda p: str(p.relative_to(PROGRAMS)))
    def test_corpus(self, path):
        c = Configuration(Env(), Env(),
                          parse_program(path.read_text(encoding="utf-8")))
        for max_states, max_depth in self.BUDGETS:
            _assert_explore_matches_oracle(c, max_states, max_depth)

    @settings(max_examples=300, deadline=None)
    @given(par_programs(), st.integers(1, 60), st.integers(1, 30))
    def test_generated_par_programs(self, c, max_states, max_depth):
        _assert_explore_matches_oracle(c, max_states, max_depth)

    @settings(max_examples=300, deadline=None)
    @given(st.builds(Par, runtime_stmts, runtime_stmts),
           st.integers(1, 60), st.integers(1, 30))
    def test_runtime_pars(self, stmt, max_states, max_depth):
        c = Configuration(SEEDED_STORE, Env(), stmt)
        _assert_explore_matches_oracle(c, max_states, max_depth)


class TestOutcomes:
    def test_single_path(self):
        o = outcomes(explore(conf(GOLDEN_BLOCK, "({a=3, b=5})")))
        assert o.terminals == frozenset({(VoidV(), "({a=3, b=2})")})
        assert o.stuck == frozenset()
        assert o.complete

    def test_wrong_shape_stuck_leaf_named(self):
        c = conf("var Bool y := true; var Nat x := 0; x := y + 1")
        o = outcomes(explore(c))
        assert not o.terminals
        [info] = list(o.stuck)
        assert info.reason == "operand of wrong shape"

    def test_protected_example_outcomes(self):
        c = conf("var Nat x := 0; protect x := 2; x := 4 end par x := 6")
        o = outcomes(explore(c))
        assert {store for _, store in o.terminals} == {"({x=4})", "({x=6})"}
        assert o.complete


class TestDot:
    def test_zero_step_graph(self):
        g = explore(Configuration(Env(), Env(), VOID))
        dot = to_dot(g)
        assert dot.startswith("digraph reduction {")
        assert dot.count(" -> ") == 0
        assert 'n0 [label="void\\n({})", penwidth=2];' in dot

    def test_two_node_graph_single_edge_line(self):
        g = explore(conf("x := 1", "({x=0})"))
        dot = to_dot(g)
        assert dot.count(" -> ") == 1
        assert 'n0 -> n1 [label="Update"];' in dot

    def test_diamond_has_two_maximal_paths(self):
        g = explore(conf("x := 1 par x := 2", "({x=0})"))
        dot = to_dot(g)
        out_of_root = [line for line in dot.splitlines()
                       if line.startswith("  n0 ->")]
        assert len(out_of_root) == 2


class TestJsonTrace:
    def test_zero_step_trace_is_single_status_line(self):
        t = run(Configuration(Env(), Env(), VOID))
        lines = to_json_trace(t).splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "status": "terminated", "steps": 0, "value": "void"}

    def test_block_trace_store_column(self):
        t = run(conf(GOLDEN_BLOCK, "({a=3, b=5})"))
        lines = [json.loads(line) for line in to_json_trace(t).splitlines()]
        assert [line["store"] for line in lines[:-1]] == GOLDEN_STORES
        assert lines[-1] == {"status": "terminated", "steps": 5, "value": "void"}
        assert [line["step"] for line in lines[:-1]] == [1, 2, 3, 4, 5]

    def test_budget_exceeded_status_line(self):
        t = run(conf("var Nat x := 0; while true do x := 1"), max_steps=10)
        last = json.loads(to_json_trace(t).splitlines()[-1])
        assert last == {"status": "budget_exceeded", "steps": 10}

    def test_stuck_status_line(self):
        t = run(conf("x := 1"))
        last = json.loads(to_json_trace(t).splitlines()[-1])
        assert last["status"] == "stuck"
        assert last["reason"] == "unbound variable x"
        assert last["at"] == "x := 1"


class TestRuleLabelsShared:
    """Every step with one rule label holds one string: the edges of a
    graph and the steps of traces share the few labels a program has."""

    def test_one_string_per_label(self):
        c = conf("var Nat x := 0; { { x := x + 1; x := x * 2 } par "
                 "begin var Nat y := x; x := y end }")
        labels = {}
        edges = explore(c).edges
        steps = [step for seed in range(3)
                 for step in run(c, schedule="random", seed=seed).steps]
        for rule in [rule for _, rule, _ in edges] + [r for r, _ in steps]:
            assert labels.setdefault(rule, rule) is rule
        # Labels that are paths through frames, not only bare axioms.
        assert any("/" in rule for rule in labels)
        assert len(labels) < len(edges)


class TestDeterminism:
    def test_byte_identical_reruns(self):
        c = conf("var Nat x := 0; { protect x := x + 1; x := x * 2 end } par x := 10")
        assert to_dot(explore(c)) == to_dot(explore(c))
        assert to_json_trace(run(c)) == to_json_trace(run(c))
        assert to_json_trace(run(c, schedule="random", seed=3)) == \
            to_json_trace(run(c, schedule="random", seed=3))


def _plain_trace(t):
    """`to_json_trace(t)` as `json.dumps` of each line's dict gives it,
    with each configuration printed on its own."""
    lines = [json.dumps({"step": n, "rule": rule, "stmt": pretty(c.stmt),
                         "store": render_store(c.store),
                         "procs": render_procs(c.procs)})
             for n, (rule, c) in enumerate(t.steps, start=1)]
    status = {"status": t.status.kind, "steps": len(t.steps)}
    if isinstance(t.status, Terminated):
        status["value"] = value_text(t.status.value)
    elif isinstance(t.status, Stuck):
        at = t.status.info.at
        status["reason"] = t.status.info.reason
        status["at"] = (pretty_expr(at) if isinstance(at, EXPR_CLASSES)
                        else pretty(at))
    lines.append(json.dumps(status))
    return "\n".join(lines) + "\n"


def _plain_dot_node_lines(g):
    """The node lines of `to_dot(g)`, each label printed on its own."""
    def escape(text):
        return text.replace("\\", "\\\\").replace('"', '\\"')
    return [f'  n{i} [label="{escape(pretty(c.stmt))}\\n'
            f'{escape(render_store(c.store))}"{", penwidth=2" if i == 0 else ""}];'
            for i, c in enumerate(g.nodes)]


def _assert_exports_match_plain_printing(c, max_steps, max_states):
    # A run or an exploration that ends in `NumeralOverflow` has nothing to
    # export; the other one is still checked.
    try:
        t = run(c, max_steps=max_steps)
    except NumeralOverflow:
        pass
    else:
        assert to_json_trace(t) == _plain_trace(t)
    try:
        g = explore(c, max_states=max_states)
    except NumeralOverflow:
        return
    lines = to_dot(g).splitlines()
    assert lines[1:1 + len(g.nodes)] == _plain_dot_node_lines(g)


class TestSharedSubtermPrinting:
    """The exporters print consecutive configurations through one memo;
    every line must equal printing its configuration alone."""

    @pytest.mark.parametrize(
        "path", sorted(PROGRAMS.glob("**/*.whl")),
        ids=lambda p: str(p.relative_to(PROGRAMS)))
    def test_corpus_traces_and_graphs(self, path):
        c = Configuration(Env(), Env(),
                          parse_program(path.read_text(encoding="utf-8")))
        _assert_exports_match_plain_printing(c, 10_000, 5_000)

    @settings(max_examples=200, deadline=None)
    @given(runtime_stmts)
    # Squares b = 2 until the numeral overflows, within both budgets.
    @example(While(TrueLit(), Update("b", Mul(Var("b"), Var("b")))))
    def test_runtime_statements(self, stmt):
        c = Configuration(SEEDED_STORE, Env(), stmt)
        _assert_exports_match_plain_printing(c, 200, 200)

    def test_epsilon_escaped(self):
        # The right side is left alone once the left one is done, and
        # prints as `ε`, which JSON writes as an ASCII escape.
        c = Configuration(SEEDED_STORE, Env(),
                          Par(Update("x", NatLit(1)), Empty()))
        text = to_json_trace(run(c))
        assert text == _plain_trace(run(c))
        assert '"stmt": "\\u03b5"' in text and "ε" not in text

    def test_stuck_trace(self):
        c = conf("var Nat x := 0; x := x + 1; call f")
        t = run(c)
        assert isinstance(t.status, Stuck) and t.steps
        assert to_json_trace(t) == _plain_trace(t)
        assert '"reason": "unbound procedure f", "at": "call f"' in \
            to_json_trace(t)

    def test_stuck_expression_trace(self):
        t = run(conf("var Nat x := 0; x := y + 1"))
        assert isinstance(t.status, Stuck) and t.status.info.at == Var("y")
        assert to_json_trace(t) == _plain_trace(t)

    def test_budget_exceeded_trace(self):
        t = run(conf("var Nat x := 0; while true do x := x + 1"),
                max_steps=25)
        assert isinstance(t.status, BudgetExceeded) and len(t.steps) == 25
        assert to_json_trace(t) == _plain_trace(t)

    def test_one_node_at_two_levels(self):
        # The same Seq and Par objects appear bare and braced, in one
        # statement and across statements printed through one memo.
        seq = Seq(Update("x", NatLit(1)), Update("y", NatLit(2)))
        par = Par(Update("z", NatLit(3)), seq)
        printer = Printer()
        assert printer.stmt(par) == "z := 3 par x := 1; y := 2"
        assert printer.stmt(seq) == "x := 1; y := 2"
        printer.advance()
        assert printer.stmt(Seq(seq, seq)) == "{ x := 1; y := 2 }; x := 1; y := 2"
        assert printer.stmt(Par(par, par)) == \
            "z := 3 par x := 1; y := 2 par { z := 3 par x := 1; y := 2 }"
        printer.advance()
        assert printer.stmt(par) == "z := 3 par x := 1; y := 2"

    @pytest.mark.parametrize("advance", [False, True])
    def test_dropped_statements_do_not_alias(self, advance):
        # Each statement is freed once printed, so a new one may be built at
        # the same address; the memo must not hand it the old text.
        printer = Printer()
        for n in range(200):
            text = printer.stmt(Seq(Update("x", NatLit(n)), Empty()))
            assert text == f"x := {n}; ε"
            if advance:
                printer.advance()


class TestAtomicityWindows:
    @pytest.mark.parametrize("text", [
        "var Nat x := 0; protect x := 2; x := 4 end par x := 6",
        "var Nat x := 0; { protect x := x + 1; x := x * 2 end } par x := 10",
    ])
    def test_no_right_step_inside_left_region(self, text):
        # Between the left side acquiring its region and releasing it, no
        # interleaving in the whole graph lets the right side move.
        g = explore(conf(text))
        succ = {}
        for src, rule, dst in g.edges:
            succ.setdefault(src, []).append((rule, dst))

        def walk(node, inside, seen):
            assert node not in seen
            for rule, dst in succ.get(node, ()):
                holding = inside
                if rule.startswith("Par1/") and rule.endswith("/Protect"):
                    holding = True
                if inside:
                    assert not rule.startswith(("Par3/", "Par4/")), rule
                if rule.startswith("Par2/") and rule.endswith("/Protected"):
                    holding = False
                walk(dst, holding, seen | {node})

        walk(0, False, frozenset())


class TestConfluence:
    @settings(max_examples=150, deadline=None)
    @given(parfree_source_stmts, parfree_source_stmts, st.data())
    def test_disjoint_update_only_sides_converge(self, left, right, data):
        # Data-race freedom at desk scale: strip each side down to updates
        # over disjoint variables, then every interleaving ends in the same
        # store.
        left = _updates_only(left, ("a", "b"))
        right = _updates_only(right, ("x", "w"))
        c = Configuration(SEEDED_STORE, Env(), Par(left, right))
        g = explore(c, max_states=4000, max_depth=4000)
        if g.truncated:
            return
        finals = {store for _, store in outcomes(g).terminals}
        assert len(finals) <= 1


def _updates_only(stmt, allowed):
    """Project a generated statement onto updates among `allowed` natural
    variables, sequencing whatever survives."""
    from whilelang.syntax import (Add, Decl, If, Mul, Seq, Sub, Update, Var,
                                  While, Begin, Protect, Par, Call, ProcDecl)
    picked = []

    def visit(s):
        match s:
            case Update(name, _) if name in allowed:
                picked.append(Update(name, Add(Var(name), NatLit(1))))
            case Seq(a, b) | Par(a, b):
                visit(a)
                visit(b)
            case If(_, a, b):
                visit(a)
                visit(b)
            case While(_, body) | Protect(body) | ProcDecl(_, body):
                visit(body)
            case Begin(_, _, body):
                visit(body)
            case _:
                pass

    visit(stmt)
    out = Update(allowed[0], NatLit(1))
    for item in picked[:3]:
        out = Seq(out, item)
    return out
