"""Reduced exploration against the full reduction graph.

`explore(..., reduce=True)` drops interleavings (partial-order reduction)
and merges states that differ only in the order of par sides (symmetry
reduction), but must keep every leaf: wherever the full graph is complete,
the reduced one is complete too and `outcomes` of both agree on terminals
and on every stuck redex of the stuck leaves.
"""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_symmetric_form
from strategies import SEEDED_STORE, runtime_stmts
from test_acceptance import ATOMIC_TEXT, ATOMIC_UNPROTECTED, PROTECT_RACE_TEXT

from whilelang import cli
from whilelang.env import Env, parse_store
from whilelang.explorer import explore, outcomes
from whilelang.parser import parse_program
from whilelang.semantics import Configuration, successors
from whilelang.syntax import (
    Add, Begin, Call, Decl, Empty, If, Le, NatLit, Par, ProcDecl,
    Protect, Protected, Seq, TrueLit, TypeName, Update, ValStmt, Var, While,
    symmetric_form,
)

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

GENERATED_SETTINGS = settings(max_examples=1000, deadline=None,
                              derandomize=True)


def assert_same_outcomes(c0, max_states=50_000):
    """Compare reduced and full outcomes; False when the full graph is
    truncated and nothing was compared."""
    full = outcomes(explore(c0, max_states=max_states))
    if not full.complete:
        return False
    reduced = outcomes(explore(c0, max_states=max_states, reduce=True))
    assert reduced == full
    return True


def conf(text, store="({})"):
    return Configuration(parse_store(store), Env(), parse_program(text))


def test_corpus_and_counterexamples_agree():
    paths = sorted(PROGRAMS.rglob("*.whl"))
    assert len(paths) == 26
    for path in paths:
        assert assert_same_outcomes(conf(path.read_text())), path.name


def test_atomicity_criteria_agree():
    for text in (ATOMIC_TEXT, ATOMIC_UNPROTECTED, PROTECT_RACE_TEXT):
        assert assert_same_outcomes(conf(text)), text


def separate_program(n):
    updates = ["; ".join(f"{x} := {x} + {j}" for j in range(1, n + 1))
               for x in ("x1", "x2")]
    return ("var Nat x1 := 0; var Nat x2 := 0; "
            "{ { " + updates[0] + " } par { " + updates[1] + " } }")


def family_program(family, k, n):
    """`k` copies of one thread of `n` updates of the shared `x`, braced
    as the benchmark's par families are, in a `protect` for "protect"."""
    updates = "; ".join(f"x := x + {j}" for j in range(1, n + 1))
    thread = ("{ protect " + updates + " end }" if family == "protect"
              else "{ " + updates + " }")
    return "var Nat x := 0; { " + " par ".join([thread] * k) + " }"


@pytest.mark.parametrize("family,k,n,states", [
    ("shared", 3, 3, 4_656),
    ("shared", 4, 2, 2_927),
    ("protect", 4, 3, 46),
])
def test_symmetric_state_counts(family, k, n, states):
    # Partial-order reduction alone reaches 16,608, 17,446 and 106 states.
    c0 = conf(family_program(family, k, n))
    g = explore(c0, reduce=True)
    assert len(g.nodes) == states
    assert outcomes(g).complete


def test_separate_threads_exact_counts(tmp_path):
    c0 = conf(separate_program(20))
    assert len(explore(c0, reduce=True).nodes) == 123
    assert len(explore(c0).nodes) == 3_723

    source = tmp_path / "separate.whl"
    source.write_text(separate_program(20))
    dot = tmp_path / "graph.dot"
    assert cli.main(["graph", str(source), "--out", str(dot)]) == 0
    lines = dot.read_text().splitlines()
    assert sum(1 for line in lines if "[label=" in line and "->" not in line) \
        == 3_723

    # The reduced graph fits a budget the full one exceeds.
    listing = tmp_path / "outcomes.txt"
    assert cli.main(["outcomes", str(source), "--out", str(listing),
                     "--max-states", "200"]) == 0
    assert listing.read_text() == ("terminal: void ({x1=210, x2=210})\n"
                                   "complete: true\n")
    assert cli.main(["graph", str(source), "--out", str(dot),
                     "--max-states", "200"]) == 4


@pytest.mark.parametrize("text", [
    "{ var Nat x := 1 } par { var Bool x := true }",
    "{ var Bool x := true } par { var Nat x := 1 }",
])
def test_declarations_of_two_types_sort_by_type(text):
    # Two sides of one class differ first in their type, so the order of
    # type names decides which comes first.
    c0 = conf(text)
    bool_first = Par(Decl(TypeName.BOOL, "x", TrueLit()),
                     Decl(TypeName.NAT, "x", NatLit(1)))
    assert symmetric_form(c0.stmt) == oracle_symmetric_form(c0.stmt) \
        == bool_first
    assert assert_same_outcomes(c0)


def test_call_on_other_side_blocks_reduction():
    # `call f` does not mention `s`, but the body it runs writes it.
    c0 = conf("var Nat s := 0; begin proc f is s := 2 s := 1 par call f end")
    assert assert_same_outcomes(c0)
    assert len(outcomes(explore(c0, reduce=True)).terminals) == 2


@pytest.mark.parametrize("head", [ValStmt(NatLit(0)), Empty()],
                         ids=["discharge", "collapse"])
def test_region_brought_to_the_head_is_not_persistent(head):
    # Discharging `0;`, or `ε` stepping to void, exposes an acquired region
    # that blocks the other side: taking that step alone would lose x=6.
    body = Update("x", Add(Var("x"), NatLit(1)))
    stmt = Par(Seq(head, Protected(body)), Update("x", NatLit(5)))
    c0 = Configuration(Env(((("x", NatLit(0)),),)), Env(), stmt)
    assert len(successors(c0, reduce=True)) == 2
    assert assert_same_outcomes(c0)


# -- generated par programs --------------------------------------------------
#
# Two threads, which may fork more with a nested par. Global `s` is shared,
# `p0` and `p1` are one thread's own and so is its loop counter `ip0` or
# `ip1`, which only counts up, so a loop runs once. `f` is declared around
# the par when drawn and does not recurse, `g` is never declared, so calls
# may get stuck; a declaration at the top of a thread redeclares a global
# and gets stuck too. Blocks declare a local `t` or shadow a thread's own
# name.

SHARED = "s"
PRIVATE = ("p0", "p1")


def _thread(own, callees, max_leaves=2):
    names = st.sampled_from([SHARED, own])
    operands = st.one_of(st.builds(NatLit, st.integers(0, 2)),
                         st.builds(Var, names))
    exprs = st.one_of(operands, st.builds(Add, st.builds(Var, names),
                                          st.just(NatLit(1))))
    update = st.builds(Update, names, exprs)
    simple = st.one_of(
        update,
        update,
        st.builds(Protect, st.builds(Seq, update, update)),
        st.builds(Protect, update),
        st.builds(Call, st.sampled_from(callees)),
        st.builds(Decl, st.just(TypeName.NAT),
                  st.sampled_from([SHARED, own, "t"]), exprs),
    )
    if max_leaves == 1:
        return simple
    counter = "i" + own
    count_up = Update(counter, Add(Var(counter), NatLit(1)))

    def extend(kids):
        return st.one_of(
            st.builds(Seq, kids, kids),
            st.builds(If, st.builds(Le, operands, operands), kids, kids),
            st.builds(lambda body: While(Le(Var(counter), NatLit(0)),
                                         Seq(body, count_up)), kids),
            st.builds(lambda local, body: Begin(local, (), body),
                      st.lists(st.builds(Decl, st.just(TypeName.NAT),
                                         st.sampled_from(["t", own]), exprs),
                               max_size=1).map(tuple),
                      kids),
            st.builds(Par, kids, kids),
        )
    return st.recursive(simple, extend, max_leaves=max_leaves)


THREADS = {own: _thread(own, ["f", "g"]) for own in PRIVATE}
SHORT_THREADS = {own: _thread(own, ["f", "g"], max_leaves=1)
                 for own in PRIVATE}
PROC_BODIES = _thread(SHARED, ["g"])


@st.composite
def par_programs(draw):
    body = Par(draw(THREADS["p0"]), draw(THREADS["p1"]))
    if draw(st.booleans()):
        body = Begin((), (ProcDecl("f", draw(PROC_BODIES)),), body)
    for name in (SHARED,) + PRIVATE:
        body = Seq(Decl(TypeName.NAT, "i" + name, NatLit(0)), body)
        body = Seq(Decl(TypeName.NAT, name, NatLit(0)), body)
    return Configuration(Env(), Env(), body)


def test_generated_par_programs_agree():
    # A case whose full graph the budget truncates is discarded and does
    # not count towards the 1,000.
    @GENERATED_SETTINGS
    @given(par_programs())
    def check(c0):
        assume(assert_same_outcomes(c0, max_states=200))

    check()


def _reordering(c0, max_states):
    """Whether some successor in the reduced graph is not in symmetric
    form, so that reduction merged or reshaped a state."""
    for node in explore(c0, max_states=max_states, reduce=True).nodes:
        for _, nxt in successors(node, True):
            if symmetric_form(nxt.stmt) is not nxt.stmt:
                return True
    return False


@st.composite
def symmetric_par_programs(draw):
    """One thread run two or three times (a simple statement when three),
    sometimes beside a distinct simple statement, as a par tree of any
    shape: alone, in a sequence head, in a `protect` body, or in the head
    of a side of another par."""
    copies = draw(st.integers(2, 3))
    thread = THREADS if copies == 2 else SHORT_THREADS
    sides = [draw(thread["p0"])] * copies
    if draw(st.booleans()):
        sides.append(draw(SHORT_THREADS["p1"]))
    sides = draw(st.permutations(sides))
    body = sides[0]
    for side in sides[1:]:
        body = Par(body, side) if draw(st.booleans()) else Par(side, body)
    place = draw(st.sampled_from(["root", "head", "protect", "side"]))
    if place == "head":
        body = Seq(body, draw(SHORT_THREADS["p1"]))
    elif place == "protect":
        body = Protect(body)
    elif place == "side":
        body = Par(Seq(body, Update(SHARED, NatLit(2))),
                   draw(SHORT_THREADS["p1"]))
    if draw(st.booleans()):
        body = Begin((), (ProcDecl("f", draw(PROC_BODIES)),), body)
    for name in (SHARED,) + PRIVATE:
        body = Seq(Decl(TypeName.NAT, "i" + name, NatLit(0)), body)
        body = Seq(Decl(TypeName.NAT, name, NatLit(0)), body)
    return Configuration(Env(), Env(), body)


def test_generated_symmetric_programs_agree():
    # A case whose full graph the budget truncates is discarded and does
    # not count towards the 1,000. Most kept cases must reorder a state,
    # or the gate would not show that merging keeps the leaves.
    reordered = []

    @GENERATED_SETTINGS
    @given(symmetric_par_programs())
    def check(c0):
        assume(assert_same_outcomes(c0, max_states=200))
        reordered.append(_reordering(c0, 200))

    check()
    assert len(reordered) >= 1000
    assert sum(reordered) >= len(reordered) // 2


def test_generated_runtime_pars_agree():
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.builds(Par, runtime_stmts, runtime_stmts))
    def check(stmt):
        c0 = Configuration(SEEDED_STORE, Env(), stmt)
        assume(assert_same_outcomes(c0, max_states=200))

    check()
