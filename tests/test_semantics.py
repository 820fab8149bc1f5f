"""The one-step relation: rule coverage, labels, gating, stuckness."""

from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings

from oracles import oracle_diagnose, oracle_step
from strategies import (
    SEEDED_STORE, parfree_runtime_stmts, runtime_stmts, stores,
)

from whilelang import env, explorer, semantics, syntax, typesys
from whilelang.env import Env, render_store
from whilelang.explorer import (
    BudgetExceeded, OutcomeSet, ReductionGraph, Stuck, Terminated, Trace,
    explore,
)
from whilelang.parser import parse_program
from whilelang.semantics import (
    Configuration, StuckInfo, diagnose, is_terminal, protected_pred,
    successors,
)
from whilelang.syntax import (
    Add, And, Begin, BeginScope, Call, Decl, Empty, EndScope, Eq, Expr,
    ExprStmt, FalseLit, If, Le, Mul, NatLit, Not, Par, ProcDecl, Protect,
    Protected, Seq, Stmt, Sub, TrueLit, TypeName, Update, ValStmt, Value, Var,
    VoidV, While, pretty,
)
from whilelang.typesys import Judgment, ProcTypeEnv, TypeEnv

NAT = TypeName.NAT
BOOL = TypeName.BOOL
VOID = ValStmt(VoidV())


def conf(stmt, store=None, procs=None) -> Configuration:
    """The procedure store defaults to one empty frame per store frame, as
    the CLI starts it."""
    store = store or Env()
    return Configuration(store, procs or Env(Env().frames * store.depth()),
                         stmt)


def nat_store(**bindings) -> Env:
    return Env((tuple((k, NatLit(v)) for k, v in bindings.items()),))


def expr_step(store, e):
    """The one step of the expression statement `e` under `store`, as
    (label, expression), or the StuckInfo when it has none."""
    c = conf(ExprStmt(e), store)
    steps = successors(c)
    if not steps:
        return diagnose(c)
    [(rule, nxt)] = steps
    return rule, nxt.stmt.expr


class TestProtectedPredicate:
    def test_acquired_region_is_protected(self):
        assert protected_pred(Protected(Update("x", NatLit(1))))
        assert protected_pred(Protected(VOID))

    def test_unacquired_protect_is_interruptible(self):
        assert not protected_pred(Protect(Update("x", NatLit(1))))

    def test_seq_looks_at_head_only(self):
        assert protected_pred(Seq(Protected(VOID), Update("x", NatLit(1))))
        assert not protected_pred(Seq(Update("x", NatLit(1)), Protect(VOID)))
        assert not protected_pred(Seq(Update("x", NatLit(1)), Protected(VOID)))

    def test_par_looks_at_both_sides(self):
        assert protected_pred(Par(Protected(VOID), Update("x", NatLit(1))))
        assert protected_pred(Par(Update("x", NatLit(1)), Protected(VOID)))
        assert not protected_pred(Par(Update("x", NatLit(1)), VOID))

    def test_other_forms_are_not(self):
        for s in (VOID, Empty(), BeginScope(), Update("x", NatLit(1)),
                  If(TrueLit(), VOID, VOID)):
            assert not protected_pred(s)


class TestExprStep:
    def test_variable_resolves_from_store(self):
        store = nat_store(y=4)
        label, stepped = expr_step(store, Add(Var("y"), NatLit(1)))
        assert label == "Expr-Var"
        assert stepped == Add(NatLit(4), NatLit(1))

    def test_primitive_application(self):
        label, stepped = expr_step(Env(), Add(NatLit(4), NatLit(1)))
        assert (label, stepped) == ("Expr-Add", NatLit(5))

    def test_monus_table(self):
        for a in range(11):
            for b in range(11):
                _, stepped = expr_step(Env(), Sub(NatLit(a), NatLit(b)))
                assert stepped == NatLit(max(0, a - b))

    def test_monus_example(self):
        assert expr_step(Env(), Sub(NatLit(3), NatLit(5)))[1] == NatLit(0)

    def test_value_has_no_step(self):
        # No expression step: the statement's one step turns it into a value.
        for value in (NatLit(5), TrueLit()):
            [(rule, _)] = successors(conf(ExprStmt(value)))
            assert rule == "Expr-Val"

    def test_left_operand_first_then_right(self):
        e = Add(Add(NatLit(1), NatLit(2)), Add(NatLit(3), NatLit(4)))
        _, stepped = expr_step(Env(), e)
        assert stepped == Add(NatLit(3), Add(NatLit(3), NatLit(4)))

    def test_conjunction_is_strict_not_shortcircuit(self):
        e = And(FalseLit(), Eq_like := Not(TrueLit()))
        label, stepped = expr_step(Env(), e)
        assert label == "Expr-Not"
        assert stepped == And(FalseLit(), FalseLit())
        label, stepped = expr_step(Env(), stepped)
        assert (label, stepped) == ("Expr-And", FalseLit())

    def test_unbound_variable_reports_stuck(self):
        info = expr_step(Env(), Add(Var("q"), NatLit(1)))
        assert info.reason == "unbound variable q"
        assert info.at == Var("q")

    def test_bool_value_in_arithmetic_hole_is_stuck(self):
        store = Env(((("y", TrueLit()),),))
        info = expr_step(store, Add(Var("y"), NatLit(1)))
        assert info.reason == "operand of wrong shape"

    def test_nat_value_in_boolean_hole_is_stuck(self):
        store = nat_store(y=4)
        info = expr_step(store, And(Var("y"), TrueLit()))
        assert info.reason == "operand of wrong shape"

    def test_any_hole_accepts_both_shapes(self):
        store = Env(((("y", TrueLit()), ("n", NatLit(2))),))
        assert expr_step(store, Var("y"))[1] == TrueLit()
        assert expr_step(store, Var("n"))[1] == NatLit(2)


class TestStatementRules:
    def test_begin_desugars_keeping_stores(self):
        store = nat_store(a=3, b=5)
        c = conf(parse_program("begin var Nat a := 4; b := 2 end"), store)
        [(rule, nxt)] = successors(c)
        assert rule == "Begin"
        assert pretty(nxt.stmt) == \
            "beginscope; var Nat a := 4; b := 2; endscope"
        assert nxt.store == store
        assert nxt.procs == c.procs

    def test_terminal_has_no_successors(self):
        assert successors(conf(VOID)) == []
        assert is_terminal(conf(VOID))
        assert not is_terminal(conf(Empty()))
        assert not is_terminal(conf(Update("x", Var("y"))))

    def test_empty_steps_to_void(self):
        [(rule, nxt)] = successors(conf(Empty()))
        assert (rule, nxt.stmt) == ("Empty", VOID)

    def test_while_unfolds_unconditionally(self):
        w = While(Eq(Var("y"), NatLit(0)), Update("y", NatLit(1))) \
            if False else parse_program("while y = 0 do y := 1")
        [(rule, nxt)] = successors(conf(w))
        assert rule == "While"
        assert nxt.stmt == If(w.cond, Seq(w.body, w), VOID)

    def test_if_on_literals(self):
        [(rule, _)] = successors(
            conf(If(TrueLit(), Update("a", NatLit(1)), VOID)))
        assert rule == "If-True"
        [(rule, nxt)] = successors(
            conf(If(FalseLit(), VOID, Update("a", NatLit(1)))))
        assert rule == "If-False"
        assert nxt.stmt == Update("a", NatLit(1))

    def test_assign_declares_and_yields_void(self):
        c = conf(Decl(NAT, "x", NatLit(1)))
        [(rule, nxt)] = successors(c)
        assert rule == "Assign"
        assert nxt.stmt == VOID
        assert render_store(nxt.store) == "({x=1})"

    def test_assign_has_no_runtime_type_check(self):
        [(_, nxt)] = successors(conf(Decl(NAT, "x", TrueLit())))
        assert render_store(nxt.store) == "({x=true})"

    def test_scope_markers(self):
        [(rule, nxt)] = successors(conf(BeginScope()))
        assert rule == "BeginScope"
        assert nxt.store.depth() == 2
        assert nxt.procs.depth() == 2
        c2 = nxt
        [(rule2, nxt2)] = successors(
            Configuration(c2.store, c2.procs, EndScope()))
        assert rule2 == "EndScope"
        assert nxt2.store.depth() == 1

    def test_call_substitutes_body(self):
        body = Update("w", NatLit(1))
        procs = Env(((("z", body),),))
        [(rule, nxt)] = successors(conf(Call("z"), nat_store(w=0), procs))
        assert (rule, nxt.stmt) == ("Call", body)
        assert nxt.store == nat_store(w=0)

    def test_seq_head_stepping_to_void_discharges(self):
        c = conf(Seq(Decl(NAT, "x", NatLit(1)), Update("x", NatLit(2))))
        [(rule, nxt)] = successors(c)
        assert rule == "Seq2/Assign"
        assert nxt.stmt == Update("x", NatLit(2))

    def test_seq_head_stepping_elsewhere_stays(self):
        c = conf(Seq(Update("x", Var("y")), VOID), nat_store(x=0, y=7))
        [(rule, nxt)] = successors(c)
        assert rule == "Seq1/Expr-Var"
        assert nxt.stmt == Seq(Update("x", NatLit(7)), VOID)

    def test_seq_value_head_discharge_rule(self):
        c = conf(Seq(ValStmt(NatLit(3)), Update("x", NatLit(1))))
        [(rule, nxt)] = successors(c)
        assert rule == "Seq-discharge"
        assert nxt.stmt == Update("x", NatLit(1))

    def test_protect_acquires(self):
        body = Update("x", NatLit(2))
        [(rule, nxt)] = successors(conf(Protect(body), nat_store(x=0)))
        assert (rule, nxt.stmt) == ("Protect", Protected(body))

    def test_protected_releases_on_value(self):
        [(rule, nxt)] = successors(conf(Protected(VOID)))
        assert (rule, nxt.stmt) == ("Protected", VOID)

    def test_protected_body_steps_without_label_component(self):
        c = conf(Protected(Update("x", NatLit(2))), nat_store(x=0))
        [(rule, nxt)] = successors(c)
        assert rule == "Update"
        assert nxt.stmt == Protected(VOID)

    def test_expr_stmt_discharges_to_value(self):
        [(rule, nxt)] = successors(conf(ExprStmt(NatLit(3))))
        assert (rule, nxt.stmt) == ("Expr-Val", ValStmt(NatLit(3)))


class TestParRules:
    def test_both_sides_offered(self):
        c = conf(Par(Update("x", NatLit(1)), Update("x", NatLit(2))),
                 nat_store(x=0))
        steps = successors(c)
        assert [rule for rule, _ in steps] == ["Par2/Update", "Par4/Update"]
        assert steps[0][1].stmt == Update("x", NatLit(2))
        assert steps[1][1].stmt == Update("x", NatLit(1))

    def test_left_preferred_in_order(self):
        c = conf(Par(Update("x", Var("y")), Update("x", NatLit(2))),
                 nat_store(x=0, y=1))
        steps = successors(c)
        assert steps[0][0].startswith("Par1/")
        assert steps[1][0].startswith("Par4/")

    def test_protected_left_blocks_right(self):
        c = conf(Par(Protected(Update("x", NatLit(2))), Update("x", NatLit(6))),
                 nat_store(x=0))
        steps = successors(c)
        assert len(steps) == 1
        [(rule, nxt)] = steps
        assert rule == "Par1/Update"
        assert nxt.stmt == Par(Protected(VOID), Update("x", NatLit(6)))

    def test_unacquired_protect_does_not_block(self):
        c = conf(Par(Protect(Update("x", NatLit(2))), Update("x", NatLit(6))),
                 nat_store(x=0))
        rules = [rule for rule, _ in successors(c)]
        assert rules == ["Par1/Protect", "Par4/Update"]

    def test_value_sides_leave_the_composition(self):
        c = conf(Par(Update("x", NatLit(1)), Update("x", NatLit(2))),
                 nat_store(x=0))
        rule, left_first = successors(c)[0]
        assert rule == "Par2/Update"
        assert left_first.stmt == Update("x", NatLit(2))

    def test_nested_par_labels(self):
        c = conf(Par(Par(Update("x", Var("y")), VOID), Update("x", NatLit(2))),
                 nat_store(x=0, y=1))
        rules = [rule for rule, _ in successors(c)]
        assert "Par1/Par1/Expr-Var" in rules
        assert "Par4/Update" in rules

    def test_nested_value_collapse_cascades(self):
        c = conf(Par(Par(Update("x", NatLit(1)), VOID), Update("x", NatLit(2))),
                 nat_store(x=0))
        rules = [rule for rule, _ in successors(c)]
        assert "Par2/Par2/Update" in rules

    def test_two_regions_serialize(self):
        left = Protect(Update("x", NatLit(1)))
        right = Protect(Update("x", NatLit(2)))
        c = conf(Par(left, right), nat_store(x=0))
        rules = {rule for rule, _ in successors(c)}
        assert rules == {"Par1/Protect", "Par3/Protect"}
        acquired_left = next(nxt for rule, nxt in successors(c)
                             if rule == "Par1/Protect")
        rules2 = [rule for rule, _ in successors(acquired_left)]
        assert rules2 == ["Par1/Update"]


class TestStuckness:
    def test_update_unbound(self):
        c = conf(Update("x", NatLit(1)))
        assert successors(c) == []
        info = diagnose(c)
        assert info.reason == "unbound variable x"
        assert info.at == Update("x", NatLit(1))

    def test_redeclaration_in_same_scope(self):
        c = conf(Decl(NAT, "x", NatLit(1)), nat_store(x=0))
        assert successors(c) == []
        assert diagnose(c).reason == "variable x already declared in this scope"

    def test_call_unbound(self):
        assert diagnose(conf(Call("q"))).reason == "unbound procedure q"

    def test_wrong_shape_operand_via_bool_variable(self):
        store = Env(((("y", TrueLit()), ("x", NatLit(0))),))
        c = conf(Update("x", Add(Var("y"), NatLit(1))), store)
        assert successors(c) == []
        assert diagnose(c).reason == "operand of wrong shape"
        assert diagnose(c).at == Var("y")

    @pytest.mark.parametrize("stmt", [
        Update("x", Add(Var("v"), NatLit(1))),
        If(Var("v"), Update("x", NatLit(1)), Update("x", NatLit(2))),
        Update("x", Var("v")),
    ], ids=["arith-hole", "bool-hole", "any-hole"])
    def test_void_bound_variable_fills_no_hole(self, stmt):
        store = Env(((("v", VoidV()), ("x", NatLit(0))),))
        c = conf(stmt, store)
        assert successors(c) == []
        assert diagnose(c).reason == "operand of wrong shape"
        assert diagnose(c).at == Var("v")

    def test_scope_underflow_is_stuck_not_raised(self):
        c = conf(EndScope())
        assert successors(c) == []
        assert diagnose(c).reason == "cannot pop the global scope"

    def test_par_of_values_is_stuck(self):
        c = conf(Par(VOID, VOID))
        assert successors(c) == []
        assert diagnose(c).reason == "no applicable reduction"

    def test_terminal_is_not_stuck(self):
        assert diagnose(conf(VOID)) is None

    def test_one_stuck_side_does_not_block_the_other(self):
        c = conf(Par(Update("q", NatLit(1)), Update("x", NatLit(2))),
                 nat_store(x=0))
        [(rule, _)] = successors(c)
        assert rule == "Par4/Update"
        assert diagnose(c) is None


# One configuration per reason a redex can be stuck, with the redex and the
# exact text. The wrong-shape cases at an operator and under `not` are
# runtime terms: the parser rejects a mis-sorted literal, and a variable of
# the wrong shape is stuck at its `Var` before its operator is contracted.
STUCK_REASONS = {
    "unbound-var": (conf(ExprStmt(Add(Var("q"), NatLit(1)))),
                    Var("q"), "unbound variable q"),
    "unbound-update": (conf(Update("x", NatLit(1))),
                       Update("x", NatLit(1)), "unbound variable x"),
    "unbound-proc": (conf(Call("q")), Call("q"), "unbound procedure q"),
    "var-redeclared": (conf(Decl(NAT, "x", NatLit(1)), nat_store(x=0)),
                       Decl(NAT, "x", NatLit(1)),
                       "variable x already declared in this scope"),
    "proc-redeclared": (
        conf(ProcDecl("p", Empty()), procs=Env(((("p", VOID),),))),
        ProcDecl("p", Empty()), "procedure p already declared in this scope"),
    "global-pop": (conf(EndScope()), EndScope(),
                   "cannot pop the global scope"),
    "shape-var": (conf(ExprStmt(Add(Var("y"), NatLit(1))),
                       Env(((("y", TrueLit()),),))),
                  Var("y"), "operand of wrong shape"),
    "shape-binary": (conf(ExprStmt(Add(TrueLit(), NatLit(1)))),
                     Add(TrueLit(), NatLit(1)), "operand of wrong shape"),
    "shape-and": (conf(ExprStmt(And(NatLit(0), TrueLit()))),
                  And(NatLit(0), TrueLit()), "operand of wrong shape"),
    "shape-not": (conf(ExprStmt(Not(NatLit(0)))), Not(NatLit(0)),
                  "operand of wrong shape"),
}


@pytest.mark.parametrize("c,at,reason", STUCK_REASONS.values(),
                         ids=STUCK_REASONS.keys())
def test_stuck_reason(c, at, reason):
    assert successors(c) == []
    assert diagnose(c) == oracle_diagnose(c) == StuckInfo(at, reason)


STORE_PRESERVING_AXIOMS = {
    "If-True", "If-False", "While", "Begin", "Protect", "Protected",
    "Call", "Seq-discharge", "Empty",
}


class TestInvariants:
    @settings(max_examples=300, deadline=None)
    @given(runtime_stmts)
    def test_store_preserving_axioms(self, stmt):
        c = Configuration(SEEDED_STORE, Env(), stmt)
        for rule, nxt in successors(c):
            axiom = rule.rsplit("/", 1)[-1]
            if axiom in STORE_PRESERVING_AXIOMS or axiom.startswith("Expr-"):
                assert nxt.store == c.store
                assert nxt.procs == c.procs

    @settings(max_examples=300, deadline=None)
    @given(parfree_runtime_stmts)
    def test_parfree_determinism(self, stmt):
        c = Configuration(SEEDED_STORE, Env(), stmt)
        assert len(successors(c)) <= 1

    @settings(max_examples=200, deadline=None)
    @given(runtime_stmts)
    def test_successors_never_raise(self, stmt):
        c = Configuration(SEEDED_STORE, Env(), stmt)
        for rule, _ in successors(c):
            assert isinstance(rule, str)


PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def _assert_step_matches_oracle(c, max_states):
    """Every state of a capped full exploration from `c` steps, in both
    modes, and is diagnosed as the `match`-dispatched relation does."""
    for node in explore(c, max_states=max_states).nodes:
        for reduce in (False, True):
            assert successors(node, reduce) == oracle_step(node, reduce)[0]
        assert diagnose(node) == oracle_diagnose(node)


class TestStepMatchesOracle:
    @pytest.mark.parametrize(
        "path", sorted(PROGRAMS.glob("**/*.whl")),
        ids=lambda p: str(p.relative_to(PROGRAMS)))
    def test_corpus(self, path):
        stmt = parse_program(path.read_text(encoding="utf-8"))
        _assert_step_matches_oracle(conf(stmt), 2000)

    @settings(max_examples=300, deadline=None)
    @given(runtime_stmts, stores)
    def test_generated_stores(self, stmt, store):
        _assert_step_matches_oracle(conf(stmt, store), 30)

    @settings(max_examples=300, deadline=None)
    @given(runtime_stmts)
    def test_seeded_store(self, stmt):
        _assert_step_matches_oracle(conf(stmt, SEEDED_STORE), 30)


def _one_of_each():
    """One instance of every statement, expression and value class, with
    each field None (no class checks its fields), and of the store,
    configuration and stuck records."""
    classes = {*get_args(Stmt), *get_args(Expr), *get_args(Value)}
    for cls in sorted(classes, key=lambda c: c.__name__):
        yield cls(*[None] * len(fields(cls)))
    c = Configuration(Env(), Env(), VOID)
    info = StuckInfo(VOID, "no applicable reduction")
    yield from (Env(), c, info)
    gamma, delta = TypeEnv((("x", NAT),)), ProcTypeEnv()
    yield from (gamma, delta,
                Judgment("T-Empty", gamma, delta, Empty(), TypeName.CMD,
                         gamma, delta))
    yield from (Terminated(VoidV()), Stuck(info), BudgetExceeded(),
                Trace(c, (), BudgetExceeded()),
                ReductionGraph((c,), (), False, frozenset()),
                OutcomeSet(frozenset(), frozenset(), True))


class TestSlottedRecords:
    """An explored state holds many nodes: none carries a per-instance
    __dict__, and none can change once built."""

    @pytest.mark.parametrize("obj", list(_one_of_each()),
                             ids=lambda obj: type(obj).__name__)
    def test_no_dict_and_frozen(self, obj):
        assert not hasattr(obj, "__dict__")
        for field in fields(obj):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, field.name, None)


# Every record class with its fields in declaration order, which are also
# its slots and its match arguments, and the defaults of those that have
# any, for their last fields.
RECORD_FIELDS = {
    NatLit: ("n",), Var: ("name",), Add: ("left", "right"),
    Sub: ("left", "right"), Mul: ("left", "right"), TrueLit: (),
    FalseLit: (), Eq: ("left", "right"), Le: ("left", "right"),
    And: ("left", "right"), Not: ("operand",), VoidV: (),
    Seq: ("first", "second"), If: ("cond", "then_branch", "else_branch"),
    While: ("cond", "body"), Decl: ("type_name", "name", "rhs"),
    Update: ("name", "rhs"), ProcDecl: ("name", "body"),
    Begin: ("decls", "procs", "body"), Call: ("name",),
    Par: ("left", "right"), Protect: ("body",), Protected: ("body",),
    BeginScope: (), EndScope: (), ExprStmt: ("expr",), ValStmt: ("value",),
    Empty: (),
    Env: ("frames",),
    Configuration: ("store", "procs", "stmt"),
    StuckInfo: ("at", "reason"),
    TypeEnv: ("bindings",), ProcTypeEnv: ("entries",),
    Judgment: ("rule", "gamma_in", "delta_in", "subject", "type",
               "gamma_out", "delta_out", "children"),
    Terminated: ("value",), Stuck: ("info",), BudgetExceeded: (),
    Trace: ("origin", "steps", "status"),
    ReductionGraph: ("nodes", "edges", "truncated", "unexpanded"),
    OutcomeSet: ("terminals", "stuck", "complete"),
}
RECORD_DEFAULTS = {Env: (((),),), TypeEnv: ((),),
                   ProcTypeEnv: ((),), Judgment: ((),)}


def _setattr_built(cls, values):
    """`cls` built as the stock frozen-dataclass `__init__` builds it: each
    field stored through `object.__setattr__`."""
    obj = object.__new__(cls)
    for name, value in zip(RECORD_FIELDS[cls], values):
        object.__setattr__(obj, name, value)
    return obj


def _assert_same_record(got, expected):
    assert type(got) is type(expected)
    assert [getattr(got, f.name) for f in fields(got)] == \
        [getattr(expected, f.name) for f in fields(expected)]
    assert got == expected
    assert hash(got) == hash(expected)
    assert repr(got) == repr(expected)


class TestRecordConstruction:
    """Records store their fields through their slots' descriptors
    (`syntax.record`); each must build what storing every field through
    `object.__setattr__` builds, from positional or keyword arguments."""

    def test_every_record_is_listed(self):
        records = {obj for module in (syntax, env, semantics, typesys,
                                      explorer)
                   for obj in vars(module).values()
                   if isinstance(obj, type) and is_dataclass(obj)
                   and obj.__module__ == module.__name__}
        assert records == set(RECORD_FIELDS)

    @pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda c: c.__name__)
    def test_slots_match_args_and_defaults(self, cls):
        names = RECORD_FIELDS[cls]
        assert cls.__slots__ == names
        assert cls.__match_args__ == names
        assert tuple(f.name for f in fields(cls)) == names
        defaults = tuple(f.default for f in fields(cls)
                         if f.default is not MISSING)
        assert defaults == RECORD_DEFAULTS.get(cls, ())

    @pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda c: c.__name__)
    def test_matches_setattr_construction(self, cls):
        names = RECORD_FIELDS[cls]
        # A distinct value per field, so that a field stored in another's
        # slot shows.
        values = [f"{cls.__name__}.{name}" for name in names]
        expected = _setattr_built(cls, values)
        _assert_same_record(cls(*values), expected)
        _assert_same_record(cls(**dict(zip(names, values))), expected)
        defaults = RECORD_DEFAULTS.get(cls, ())
        required = values[:len(values) - len(defaults)]
        _assert_same_record(cls(*required),
                            _setattr_built(cls, [*required, *defaults]))
        obj = cls(*values)
        for name in names:
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)

    @pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda c: c.__name__)
    def test_bad_arguments(self, cls):
        names = RECORD_FIELDS[cls]
        values = [None] * len(names)
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values, unknown=None)
        required = len(names) - len(RECORD_DEFAULTS.get(cls, ()))
        if required:
            with pytest.raises(TypeError):
                cls(*values[:required - 1])
            with pytest.raises(TypeError):
                cls(*values, **{names[0]: None})
