"""Leveled store operations and their canonical rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import names, stores, values
from oracles import scan_lookup

from whilelang.env import (
    Env, RedeclError, ScopeError, UnboundError, declare_proc,
    declare_var, lookup_proc, lookup_var, parse_store, pop_scope,
    push_scope, render_store, update_var,
)
from whilelang.syntax import Update, NatLit


def store_of(*frames) -> Env:
    return Env(tuple(tuple((k, NatLit(v)) for k, v in f) for f in frames))


class TestScopes:
    def test_push_adds_one_empty_level_to_both(self):
        store = store_of([("a", 3), ("b", 5)])
        procs = Env()
        store2, procs2 = push_scope(store, procs)
        assert render_store(store2) == "({a=3, b=5}, {})"
        assert store2.depth() == 2 and procs2.depth() == 2
        assert store2.frames[:-1] == store.frames

    def test_pop_keeps_outer_changes(self):
        store = store_of([("a", 3), ("b", 2)], [("a", 4)])
        procs = Env(((), ()))
        store2, procs2 = pop_scope(store, procs)
        assert render_store(store2) == "({a=3, b=2})"
        assert procs2.depth() == 1

    def test_pop_of_global_scope_fails(self):
        with pytest.raises(ScopeError):
            pop_scope(store_of([("x", 1)]), Env())

    def test_push_then_pop_is_identity(self):
        store = store_of([("a", 3)])
        procs = Env()
        assert pop_scope(*push_scope(store, procs)) == (store, procs)


class TestDeclare:
    def test_declares_into_deepest_frame_only(self):
        store = store_of([("a", 3), ("b", 5)], [])
        got = declare_var(store, "a", NatLit(4))
        assert render_store(got) == "({a=3, b=5}, {a=4})"

    def test_redeclaration_in_same_level_fails(self):
        store = store_of([], [("a", 4)])
        with pytest.raises(RedeclError):
            declare_var(store, "a", NatLit(7))

    def test_fresh_name_in_global(self):
        assert render_store(declare_var(Env(), "x", NatLit(1))) == "({x=1})"


class TestUpdateLookup:
    def test_updates_deepest_binding_only(self):
        store = store_of([("a", 3), ("b", 5)], [("a", 4)])
        got = update_var(store, "b", NatLit(2))
        assert render_store(got) == "({a=3, b=2}, {a=4})"
        got = update_var(store, "a", NatLit(9))
        assert render_store(got) == "({a=3, b=5}, {a=9})"

    def test_update_unbound_fails(self):
        with pytest.raises(UnboundError):
            update_var(Env(), "z", NatLit(1))

    def test_lookup_prefers_deepest(self):
        store = store_of([("a", 3)], [("a", 4)])
        assert lookup_var(store, "a") == NatLit(4)
        assert lookup_var(store_of([("a", 3), ("b", 5)]), "b") == NatLit(5)

    def test_lookup_unbound_fails(self):
        with pytest.raises(UnboundError):
            lookup_var(Env(), "x")


class TestProcs:
    def test_declare_and_lookup(self):
        body = Update("r", NatLit(4))
        procs = declare_proc(Env(((), ())), "z", body)
        assert lookup_proc(procs, "z") == body
        assert procs.frames == ((), (("z", body),))

    def test_redeclaration_fails(self):
        procs = declare_proc(Env(), "z", Update("r", NatLit(4)))
        with pytest.raises(RedeclError):
            declare_proc(procs, "z", Update("r", NatLit(5)))

    def test_deepest_binding_wins(self):
        inner = Update("r", NatLit(1))
        outer = Update("r", NatLit(2))
        procs = Env(((("z", outer),), (("z", inner),)))
        assert lookup_proc(procs, "z") == inner

    def test_lookup_unbound(self):
        with pytest.raises(UnboundError):
            lookup_proc(Env(), "q")


class TestProperties:
    @settings(max_examples=200)
    @given(stores, names, values)
    def test_lookup_matches_linear_scan(self, store, name, value):
        expected = scan_lookup(store, name)
        if expected is None:
            with pytest.raises(UnboundError):
                lookup_var(store, name)
        else:
            assert lookup_var(store, name) == expected

    @settings(max_examples=200)
    @given(stores, names, values)
    def test_update_rebinds_where_scan_finds_it(self, store, name, value):
        if scan_lookup(store, name) is None:
            with pytest.raises(UnboundError):
                update_var(store, name, value)
            return
        got = update_var(store, name, value)
        assert scan_lookup(got, name) == value
        assert got.depth() == store.depth()
        # no other binding moved
        for before, after in zip(store.frames, got.frames):
            assert [k for k, _ in before] == [k for k, _ in after]

    @settings(max_examples=200)
    @given(stores, names, values)
    def test_shadowing_push_declare_pop(self, store, name, value):
        procs = Env(tuple(() for _ in store.frames))
        inner_store, inner_procs = push_scope(store, procs)
        declared = declare_var(inner_store, name, value)
        assert lookup_var(declared, name) == value
        popped, _ = pop_scope(declared, inner_procs)
        assert popped == store

    @settings(max_examples=200)
    @given(stores, names, values)
    def test_declare_never_touches_existing_frames(self, store, name, value):
        if name in dict(store.frames[-1]):
            with pytest.raises(RedeclError):
                declare_var(store, name, value)
            return
        got = declare_var(store, name, value)
        assert got.frames[:-1] == store.frames[:-1]
        assert got.depth() == store.depth()


class TestPurity:
    @settings(max_examples=150)
    @given(stores, names, values)
    def test_operations_never_mutate_inputs(self, store, name, value):
        procs = Env(tuple(() for _ in store.frames))
        # Texts share no object with the stores, so a store whose frames
        # are rebound in place no longer matches its text.
        before = repr(store), repr(procs)
        push_scope(store, procs)
        try:
            pop_scope(store, procs)
        except ScopeError:
            pass
        try:
            declare_var(store, name, value)
        except RedeclError:
            pass
        try:
            update_var(store, name, value)
        except UnboundError:
            pass
        try:
            lookup_var(store, name)
        except UnboundError:
            pass
        assert (repr(store), repr(procs)) == before


class TestRendering:
    def test_examples(self):
        assert render_store(Env()) == "({})"
        assert render_store(store_of([("a", 3), ("b", 5)], [("a", 4)])) == \
            "({a=3, b=5}, {a=4})"

    @settings(max_examples=200)
    @given(stores)
    def test_parse_inverts_render(self, store):
        assert parse_store(render_store(store)) == store

    @pytest.mark.parametrize("text", [
        "", "()", "{a=1}", "({a})", "({a=})", "({a=1} {b=2})", "({a=nope})",
        "({a=²})", "({a=٣})", "({x=1, x=2})",
        # names no program can mention
        "({x y=2, x=0})", "({1=2, x=0})", "({while=3, x=0})", "({é=1})",
        "({_a=1})",
        # a comma after the last frame or binding
        "({x=1},)", "({x=1}, )", "({x=1, })",
        # more digits than Python's default int/str conversion limit
        pytest.param("({a=" + "9" * 4301 + "})", id="numeral-of-4301-digits"),
    ])
    def test_bad_store_files(self, text):
        with pytest.raises(ValueError):
            parse_store(text)

    @pytest.mark.parametrize("text,rest", [
        ("({x=1)", "{x=1"),
        ("({x=1}, {y=2)", "{y=2"),
    ])
    def test_unclosed_frame_is_named(self, text, rest):
        with pytest.raises(ValueError) as info:
            parse_store(text)
        assert str(info.value) == f"expected '}}' to close the frame at {rest!r}"

    def test_overlong_numeral_is_not_a_value(self):
        # rejected by the numeral bound, before int() would refuse it
        with pytest.raises(ValueError, match="not a value"):
            parse_store("({a=" + "9" * 4301 + "})")
        assert parse_store("({a=" + "9" * 4300 + "})") == \
            Env(((("a", NatLit(int("9" * 4300))),),))
