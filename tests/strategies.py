"""Hypothesis generators for expressions, statements, stores."""

from hypothesis import strategies as st

from whilelang.syntax import (
    Add, And, Begin, BeginScope, Call, Decl, Empty, EndScope, Eq, ExprStmt,
    FalseLit, If, Le, Mul, NatLit, Not, Par, ProcDecl, Protect, Protected,
    Seq, Sub, TrueLit, TypeName, Update, ValStmt, Var, VoidV, While,
)
from whilelang.env import Env

VAR_POOL = ["a", "b", "c", "x", "y", "z", "w"]
PROC_POOL = ["p", "q", "f", "g"]

names = st.sampled_from(VAR_POOL)
proc_names = st.sampled_from(PROC_POOL)
type_names = st.sampled_from([TypeName.NAT, TypeName.BOOL])

values = st.one_of(
    st.builds(NatLit, st.integers(0, 9)),
    st.just(TrueLit()),
    st.just(FalseLit()),
    st.just(VoidV()),
)

aexps = st.recursive(
    st.one_of(st.builds(NatLit, st.integers(0, 9)), st.builds(Var, names)),
    lambda kids: st.one_of(
        st.builds(Add, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids),
    ),
    max_leaves=6,
)

bexps = st.recursive(
    st.one_of(st.just(TrueLit()), st.just(FalseLit()), st.builds(Var, names)),
    lambda kids: st.one_of(
        st.builds(And, kids, kids),
        st.builds(Not, kids),
        st.builds(Eq, aexps, aexps),
        st.builds(Le, aexps, aexps),
    ),
    max_leaves=6,
)

exprs = st.one_of(aexps, bexps)


def _extend_source(kids, allow_par: bool):
    decls = st.lists(st.builds(Decl, type_names, names, exprs),
                     max_size=2).map(tuple)
    procs = st.lists(st.builds(ProcDecl, proc_names, kids),
                     max_size=2).map(tuple)
    options = [
        st.builds(Seq, kids, kids),
        st.builds(If, bexps, kids, kids),
        st.builds(While, bexps, kids),
        st.builds(Protect, kids),
        st.builds(Begin, decls, procs, kids),
    ]
    if allow_par:
        options.append(st.builds(Par, kids, kids))
    return st.one_of(options)


_source_base = st.one_of(
    st.builds(Decl, type_names, names, exprs),
    st.builds(Update, names, exprs),
    st.builds(Call, proc_names),
)

source_stmts = st.recursive(
    _source_base, lambda kids: _extend_source(kids, allow_par=True),
    max_leaves=8)

parfree_source_stmts = st.recursive(
    _source_base, lambda kids: _extend_source(kids, allow_par=False),
    max_leaves=8)

_runtime_base = st.one_of(
    _source_base,
    st.builds(ValStmt, values),
    st.just(Empty()),
    st.just(BeginScope()),
    st.just(EndScope()),
    st.builds(ExprStmt, exprs),
)


def _extend_runtime(kids):
    return st.one_of(
        _extend_source(kids, allow_par=True),
        st.builds(Protected, kids),
        st.builds(ProcDecl, proc_names, kids),
        st.builds(If, st.builds(NatLit, st.integers(0, 9)), kids, kids),
    )


runtime_stmts = st.recursive(_runtime_base, _extend_runtime, max_leaves=8)

parfree_runtime_stmts = st.recursive(
    st.one_of(
        _source_base,
        st.builds(ValStmt, values),
        st.just(Empty()),
        st.just(BeginScope()),
        st.just(EndScope()),
        st.builds(ExprStmt, exprs),
    ),
    lambda kids: st.one_of(
        _extend_source(kids, allow_par=False),
        st.builds(Protected, kids),
        st.builds(ProcDecl, proc_names, kids),
    ),
    max_leaves=8)


# A store binding the whole pool, so generated programs take many steps
# before hitting an unbound name.
SEEDED_STORE = Env(((
    ("a", NatLit(1)), ("b", NatLit(2)), ("c", NatLit(0)),
    ("x", NatLit(3)), ("y", TrueLit()), ("z", FalseLit()), ("w", NatLit(5)),
),))

stores = st.lists(
    st.lists(st.tuples(names, values), max_size=4, unique_by=lambda k: k[0])
    .map(tuple),
    min_size=1, max_size=3,
).map(lambda frames: Env(tuple(frames)))
