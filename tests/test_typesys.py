"""Typing judgments, environment algebra, derivations, error rendering."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_render_derivation, oracle_type_of_expr, oracle_type_of_stmt,
)
from strategies import (
    PROC_POOL, exprs, parfree_source_stmts, runtime_stmts, source_stmts,
)
from test_cli import _load_perfbench

from whilelang.parser import parse_program
from whilelang.syntax import (
    EXPR_CLASSES, Add, Begin, BeginScope, Call, Decl, Empty, EndScope,
    ExprStmt, NatLit, Par, ProcDecl, Protect, Protected, Seq, TrueLit,
    TypeName, ValStmt, Var, VoidV, pretty,
)
from whilelang.typesys import (
    Judgment, PrefixError, ProcTypeEnv, TypeCheckError, TypeEnv,
    check_program, env_diff, env_union, render_derivation, type_of_expr,
    type_of_stmt,
)

NAT = TypeName.NAT
BOOL = TypeName.BOOL
CMD = TypeName.CMD

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def tenv(*pairs) -> TypeEnv:
    return TypeEnv(tuple(pairs))


binding_lists = st.lists(
    st.sampled_from([("x", NAT), ("y", BOOL), ("z", NAT)]),
    max_size=4).map(tuple)


def find_rule(j: Judgment, rule: str) -> Judgment | None:
    if j.rule == rule:
        return j
    for child in j.children:
        hit = find_rule(child, rule)
        if hit:
            return hit
    return None


def all_judgments(j: Judgment):
    yield j
    for child in j.children:
        yield from all_judgments(child)


# Environments binding the whole name pools: about a quarter of the
# generated statements type-check from these, 3% from empty ones.
SEEDED = (
    TypeEnv((("a", NAT), ("b", NAT), ("c", NAT), ("x", NAT),
             ("y", BOOL), ("z", BOOL), ("w", NAT))),
    ProcTypeEnv(tuple((p, TypeEnv()) for p in PROC_POOL)),
)


def derivations(stmt) -> list[Judgment]:
    """The derivations of `stmt` from empty and from seeded environments,
    where it type-checks."""
    found = []
    for gamma, delta in ((TypeEnv(), ProcTypeEnv()), SEEDED):
        try:
            found.append(type_of_stmt(gamma, delta, stmt))
        except TypeCheckError:
            pass
    return found


class TestEnvAlgebra:
    def test_union_keeps_duplicates_in_order(self):
        got = env_union(tenv(("x", NAT), ("y", BOOL)), tenv(("y", NAT)))
        assert got == tenv(("x", NAT), ("y", BOOL), ("y", NAT))
        assert got.lookup("y") is NAT

    def test_union_identity(self):
        g = tenv(("x", NAT))
        assert env_union(g, TypeEnv()) == g
        assert env_union(TypeEnv(), g) == g

    def test_diff_takes_positional_suffix(self):
        after = tenv(("x", NAT), ("y", BOOL), ("y", NAT))
        before = tenv(("x", NAT), ("y", BOOL))
        assert env_diff(after, before) == tenv(("y", NAT))
        assert env_diff(before, before) == TypeEnv()

    def test_diff_requires_prefix(self):
        with pytest.raises(PrefixError):
            env_diff(tenv(("x", NAT)), tenv(("y", NAT)))

    @settings(max_examples=100)
    @given(binding_lists, binding_lists)
    def test_diff_inverts_union(self, a, b):
        g, h = TypeEnv(a), TypeEnv(b)
        assert env_diff(env_union(g, h), g) == h


class TestExprTyping:
    def test_literals(self):
        assert type_of_expr(TypeEnv(), ProcTypeEnv(), NatLit(5)).type is NAT
        assert type_of_expr(TypeEnv(), ProcTypeEnv(), TrueLit()).type is BOOL

    def test_var_uses_most_recent_binding(self):
        g = tenv(("y", BOOL), ("y", NAT))
        assert type_of_expr(g, ProcTypeEnv(), Var("y")).type is NAT

    def test_comparison(self):
        g = tenv(("x", NAT))
        j = type_of_expr(g, ProcTypeEnv(),
                         parse_program("w := x <= 4").rhs)
        assert j.type is BOOL
        assert j.rule == "T-LEqual"

    def test_mismatch_reports_operator_node(self):
        g = tenv(("x", NAT), ("y", BOOL))
        with pytest.raises(TypeCheckError) as info:
            type_of_expr(g, ProcTypeEnv(), Add(Var("x"), Var("y")))
        assert str(info.value) == "error[T-Add] at x + y: expected Nat, found Bool"

    def test_unbound_variable(self):
        with pytest.raises(TypeCheckError) as info:
            type_of_expr(TypeEnv(), ProcTypeEnv(), Var("q"))
        assert str(info.value) == "error[T-Var] at q: unbound variable"

    def test_conjunction_rule_name(self):
        j = type_of_expr(TypeEnv(), ProcTypeEnv(),
                         parse_program("w := true and false").rhs)
        assert j.rule == "T-And"

    @settings(max_examples=300)
    @given(exprs)
    def test_outputs_equal_inputs(self, e):
        g = tenv(("a", NAT), ("b", NAT), ("c", NAT), ("x", NAT),
                 ("y", BOOL), ("z", BOOL), ("w", NAT))
        try:
            j = type_of_expr(g, ProcTypeEnv(), e)
        except TypeCheckError:
            return
        for node in all_judgments(j):
            assert node.gamma_out == node.gamma_in
            assert node.delta_out == node.delta_in


class TestStatementTyping:
    def test_if_unions_branch_additions(self):
        j = check_program(parse_program(
            "if not true then var Nat y := 2 else var Nat z := 4"))
        assert j.type is CMD
        assert j.gamma_out == tenv(("y", NAT), ("z", NAT))

    def test_while_program(self):
        j = check_program(parse_program(
            "var Nat x := 1; while x <= 4 do x := x + 1"))
        assert j.type is CMD
        assert j.gamma_out == tenv(("x", NAT))

    def test_begin_with_proc(self):
        j = check_program(parse_program(
            "begin var Nat x := 2; var Bool y := true"
            " proc q is var Nat y := 1 call q; x := y end"))
        assert j.gamma_out == TypeEnv()
        proc = find_rule(j, "T-Proc")
        assert proc.delta_out.lookup("q") == tenv(("y", NAT))
        call = find_rule(j, "T-Call")
        assert call.gamma_out == tenv(("x", NAT), ("y", BOOL), ("y", NAT))

    def test_block_scope_mismatch_rejected(self):
        with pytest.raises(TypeCheckError) as info:
            check_program(parse_program(
                "var Nat y := 1;"
                " begin var Nat x := 2; var Bool y := true x := x + y end"))
        assert str(info.value) == "error[T-Add] at x + y: expected Nat, found Bool"

    def test_decl_requires_exact_annotation(self):
        with pytest.raises(TypeCheckError) as info:
            check_program(parse_program("var Nat x := true"))
        assert str(info.value) == \
            "error[T-Assign] at var Nat x := true: expected Nat, found Bool"

    def test_update_requires_matching_type(self):
        with pytest.raises(TypeCheckError) as info:
            check_program(parse_program("var Bool y := true; y := 1"))
        assert str(info.value) == "error[T-Update] at y := 1: expected Bool, found Nat"

    def test_update_unbound(self):
        with pytest.raises(TypeCheckError, match=r"error\[T-Update\] at x := 1: unbound variable"):
            check_program(parse_program("x := 1"))

    def test_loop_body_must_not_declare(self):
        with pytest.raises(TypeCheckError) as info:
            check_program(parse_program("while true do var Nat x := 1"))
        assert str(info.value).endswith("loop body modifies environment")

    def test_condition_must_be_bool(self):
        with pytest.raises(TypeCheckError) as info:
            check_program(parse_program("var Nat x := 1; if x then x := 1 else x := 2"))
        assert "expected Bool, found Nat" in str(info.value)

    def test_call_unbound_procedure(self):
        with pytest.raises(TypeCheckError) as info:
            check_program(parse_program("call q"))
        assert str(info.value) == "error[T-Call] at call q: unbound procedure"

    def test_runtime_only_rejected(self):
        decl = Decl(NAT, "x", NatLit(1))
        places = (
            lambda rt: rt,
            lambda rt: Seq(decl, rt),
            lambda rt: Par(decl, rt),
            lambda rt: Protect(Seq(decl, rt)),
            lambda rt: Begin((), (ProcDecl("p", rt),), Call("p")),
            lambda rt: Begin((decl,), (), rt),
        )
        for rt in (ValStmt(VoidV()), BeginScope(), EndScope(),
                   ExprStmt(NatLit(1)), Protected(ValStmt(VoidV())), Empty()):
            for place in places:
                with pytest.raises(TypeCheckError) as info:
                    check_program(place(rt))
                assert info.value.location is rt
                assert str(info.value) == \
                    f"error[check] at {pretty(rt)}: runtime-only construct"
        # T-Empty judges only an empty block section, never a statement.
        with pytest.raises(TypeCheckError) as info:
            type_of_stmt(TypeEnv(), ProcTypeEnv(), Empty())
        assert str(info.value) == "error[check] at ε: runtime-only construct"

    def test_par_and_protect(self):
        j = check_program(parse_program(
            "var Nat x := 0; { protect x := x + 1 end par x := 2 }"))
        assert j.type is CMD
        par = find_rule(j, "T-Par")
        assert par is not None and par.type is CMD
        assert find_rule(j, "T-Protect") is not None

    def test_shadowing_redeclaration_is_permitted(self):
        j = check_program(parse_program("var Nat x := 1; var Bool x := true"))
        assert j.gamma_out == tenv(("x", NAT), ("x", BOOL))
        assert j.gamma_out.lookup("x") is BOOL


class TestDerivations:
    def test_axiom_renders_one_line(self):
        j = type_of_expr(TypeEnv(), ProcTypeEnv(), NatLit(5))
        assert render_derivation(j) == "T-Nat: {} {} ⊢ 5 : Nat ⊣ {} {}\n"

    def test_branch_union_example_rule_multiset(self):
        j = check_program(parse_program(
            "if not true then var Nat y := 2 else var Nat z := 4"))
        rules = sorted(node.rule for node in all_judgments(j))
        assert rules == ["T-Assign", "T-Assign", "T-If", "T-Nat", "T-Nat",
                         "T-Not", "T-True"]

    def test_children_indented(self):
        j = check_program(parse_program("var Nat x := 1"))
        lines = render_derivation(j).splitlines()
        assert lines[0].startswith("T-Assign:")
        assert lines[1].startswith("  T-Nat:")

    @settings(max_examples=200)
    @given(parfree_source_stmts)
    def test_rendering_injective_on_corpus(self, stmt):
        try:
            j = check_program(stmt)
        except TypeCheckError:
            return
        seen = {}
        for node in all_judgments(j):
            text = render_derivation(node)
            if text in seen:
                assert seen[text] == node
            seen[text] = node


class TestRenderingMatchesOracle:
    """`render_derivation` prints shared subjects and environments once; the
    oracle prints every judgment from scratch."""

    @settings(max_examples=300, deadline=None)
    @given(source_stmts)
    def test_generated_statements(self, stmt):
        for j in derivations(stmt):
            assert render_derivation(j) == oracle_render_derivation(j)

    def test_corpus(self):
        # Every corpus program type-checks, the counterexamples included.
        for path in sorted(PROGRAMS.glob("**/*.whl")):
            j = check_program(parse_program(path.read_text("utf-8")))
            assert render_derivation(j) == oracle_render_derivation(j), path


class TestCheckerProperties:
    @settings(max_examples=300, deadline=None)
    @given(source_stmts)
    def test_gamma_grows_monotonically(self, stmt):
        for j in derivations(stmt):
            for node in all_judgments(j):
                # Statements have type Cmd, expressions Nat or Bool.
                assert node.type in ((NAT, BOOL) if isinstance(
                    node.subject, EXPR_CLASSES) else (CMD,))
                if node.rule in ("T-Begin", "T-Empty"):
                    assert node.gamma_out == node.gamma_in
                else:
                    assert node.gamma_in.is_prefix_of(node.gamma_out)

    @settings(max_examples=300, deadline=None)
    @given(source_stmts)
    def test_delta_changes_only_at_proc(self, stmt):
        for j in derivations(stmt):
            for node in all_judgments(j):
                if node.rule not in ("T-Proc", "T-Seq", "T-Begin", "T-Protect"):
                    assert node.delta_out == node.delta_in
                if node.rule == "T-Proc":
                    assert len(node.delta_out.entries) >= len(node.delta_in.entries)

    @settings(max_examples=300, deadline=None)
    @given(source_stmts)
    def test_accepted_while_bodies_fix_environments(self, stmt):
        for j in derivations(stmt):
            for node in all_judgments(j):
                if node.rule == "T-While":
                    assert node.gamma_out == node.gamma_in
                    assert node.delta_out == node.delta_in

    @settings(max_examples=200, deadline=None)
    @given(source_stmts)
    def test_verdict_stable_under_reprinting(self, stmt):
        text = pretty(stmt)
        reparsed = parse_program(text)
        try:
            first = check_program(stmt)
            verdict = ("ok", first.type)
        except TypeCheckError:
            verdict = ("err",)
        try:
            second = check_program(reparsed)
            again = ("ok", second.type)
        except TypeCheckError:
            again = ("err",)
        assert verdict == again


def _assert_checker_matches_oracle(check, oracle, node):
    """From empty and from seeded environments: equal judgment trees with
    byte-identical derivation texts, or errors with equal rule and cause
    at the same node."""
    for gamma, delta in ((TypeEnv(), ProcTypeEnv()), SEEDED):
        try:
            expected = oracle(gamma, delta, node)
        except TypeCheckError as err:
            with pytest.raises(TypeCheckError) as info:
                check(gamma, delta, node)
            assert (info.value.rule, info.value.cause) == (err.rule, err.cause)
            assert info.value.location is err.location
            continue
        got = check(gamma, delta, node)
        assert got == expected
        assert render_derivation(got) == oracle_render_derivation(expected)


class TestCheckerMatchesOracle:
    """The checker's class dispatch against the rules written as `match`
    cases in tests/oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(exprs)
    def test_generated_expressions(self, e):
        _assert_checker_matches_oracle(type_of_expr, oracle_type_of_expr, e)

    @settings(max_examples=300, deadline=None)
    @given(source_stmts)
    def test_generated_statements(self, stmt):
        _assert_checker_matches_oracle(type_of_stmt, oracle_type_of_stmt, stmt)

    @settings(max_examples=300, deadline=None)
    @given(runtime_stmts)
    def test_generated_runtime_statements(self, stmt):
        _assert_checker_matches_oracle(type_of_stmt, oracle_type_of_stmt, stmt)

    def test_corpus(self):
        for path in sorted(PROGRAMS.glob("**/*.whl")):
            _assert_checker_matches_oracle(
                type_of_stmt, oracle_type_of_stmt,
                parse_program(path.read_text("utf-8")))

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_benchmark_programs_and_mutants(self, index):
        # Each of the benchmark's four mutations (unbound update,
        # Bool to Nat, Nat condition, unbound call) at its first and
        # last site, each forcing its rule.
        workloads = _load_perfbench("workloads")
        text, sites = workloads.frontend_program(index)
        _assert_checker_matches_oracle(
            type_of_stmt, oracle_type_of_stmt, parse_program(text))
        for kind, rule in workloads.MUTATIONS.items():
            for site in sorted({0, sites[kind] - 1}):
                if site < 0:
                    continue
                mutant, _ = workloads.frontend_program(index, (kind, site))
                stmt = parse_program(mutant)
                with pytest.raises(TypeCheckError) as info:
                    check_program(stmt)
                assert info.value.rule == rule
                _assert_checker_matches_oracle(
                    type_of_stmt, oracle_type_of_stmt, stmt)

    def test_non_expression_rejected(self):
        for node in (Seq(Call("p"), Call("q")), ValStmt(VoidV()), Empty()):
            with pytest.raises(TypeError) as got:
                type_of_expr(TypeEnv(), ProcTypeEnv(), node)
            with pytest.raises(TypeError) as expected:
                oracle_type_of_expr(TypeEnv(), ProcTypeEnv(), node)
            assert str(got.value) == str(expected.value)
