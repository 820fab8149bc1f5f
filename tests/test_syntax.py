"""Parser, pretty-printer, and decomposition machinery."""

import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import SEEDED_STORE, exprs, runtime_stmts, source_stmts
from oracles import (
    oracle_parse_program, oracle_pretty, oracle_pretty_expr,
    oracle_redex_positions, oracle_tokenize,
)
from test_cli import _load_perfbench

from whilelang.env import Env
from whilelang.explorer import explore
from whilelang.parser import (
    KEYWORDS, ParseError, Token, _texts, is_identifier, parse_program,
    tokenize,
)
from whilelang.semantics import Configuration
from whilelang.syntax import (
    Add, And, Begin, BeginScope, Call, Decl, Empty, Eq, ExprStmt, FalseLit,
    If, Le, Mul, NatLit, Not, Par, ProcDecl, Protect, Protected, Seq, Sub,
    Printer, TrueLit, TypeName, Update, ValStmt, Var, VoidV, While, decompose,
    plug, pretty, pretty_expr,
)

NAT = TypeName.NAT
BOOL = TypeName.BOOL


class TestParseGoldens:
    def test_decl_then_update(self):
        assert parse_program("var Nat y := 4; y := y + 1") == Seq(
            Decl(NAT, "y", NatLit(4)),
            Update("y", Add(Var("y"), NatLit(1))),
        )

    def test_bool_decl_if(self):
        got = parse_program(
            "var Bool y := false; if not y then var Nat z := 1 else var Nat z := 3")
        assert got == Seq(
            Decl(BOOL, "y", FalseLit()),
            If(Not(Var("y")),
               Decl(NAT, "z", NatLit(1)),
               Decl(NAT, "z", NatLit(3))),
        )

    def test_while_loop(self):
        got = parse_program("var Nat y := 0; while y = 0 do y := y + 1")
        assert got == Seq(
            Decl(NAT, "y", NatLit(0)),
            While(Eq(Var("y"), NatLit(0)),
                  Update("y", Add(Var("y"), NatLit(1)))),
        )

    def test_begin_with_proc_sections_unseparated(self):
        got = parse_program(
            "begin var Nat w := 2 proc z is var Nat r := 4 call z; w := r end")
        assert got == Begin(
            (Decl(NAT, "w", NatLit(2)),),
            (ProcDecl("z", Decl(NAT, "r", NatLit(4))),),
            Seq(Call("z"), Update("w", Var("r"))),
        )

    def test_begin_with_semicolons_between_sections(self):
        with_semis = parse_program(
            "begin var Nat w := 2; proc z is var Nat r := 4; call z; w := r end")
        without = parse_program(
            "begin var Nat w := 2 proc z is var Nat r := 4 call z; w := r end")
        assert with_semis == without

    def test_par_binds_looser_than_seq(self):
        got = parse_program("x := 1; x := 2 par x := 3")
        assert got == Par(
            Seq(Update("x", NatLit(1)), Update("x", NatLit(2))),
            Update("x", NatLit(3)),
        )

    def test_braces_regroup(self):
        got = parse_program("x := 1; { x := 2 par x := 3 }")
        assert got == Seq(
            Update("x", NatLit(1)),
            Par(Update("x", NatLit(2)), Update("x", NatLit(3))),
        )

    def test_protect_delimits_a_full_statement(self):
        got = parse_program("protect x := 2; x := 4 end par x := 6")
        assert got == Par(
            Protect(Seq(Update("x", NatLit(2)), Update("x", NatLit(4)))),
            Update("x", NatLit(6)),
        )

    def test_begin_of_only_declarations_takes_last_as_body(self):
        got = parse_program("begin var Nat x := 1 end")
        assert got == Begin((), (), Decl(NAT, "x", NatLit(1)))
        got = parse_program("begin var Nat x := 1; var Nat y := 2 end")
        assert got == Begin((Decl(NAT, "x", NatLit(1)),), (),
                            Decl(NAT, "y", NatLit(2)))

    def test_unicode_operator_aliases(self):
        assert parse_program("while x ≤ 4 do x := x + 1") == \
            parse_program("while x <= 4 do x := x + 1")
        assert parse_program("x := y ∧ ¬ z") == \
            parse_program("x := y and not z")
        assert parse_program("x := a − b") == parse_program("x := a - b")

    def test_comments_and_whitespace(self):
        got = parse_program("// leading note\nvar Nat x := 1 // trailing\n")
        assert got == Decl(NAT, "x", NatLit(1))

    def test_expression_precedence(self):
        got = parse_program("x := 1 + 2 * 3 - 4")
        assert got == Update("x", Sub(Add(NatLit(1), Mul(NatLit(2), NatLit(3))),
                                      NatLit(4)))
        got = parse_program("x := a = 1 and b <= 2 and true")
        assert got == Update("x", And(Eq(Var("a"), NatLit(1)),
                                      And(Le(Var("b"), NatLit(2)), TrueLit())))

    def test_bare_variable_rhs_is_arithmetic(self):
        assert parse_program("x := y") == Update("x", Var("y"))


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "0",                       # a bare expression is not a statement
        "",                        # nothing at all
        "x := ",                   # missing right-hand side
        "begin end",               # a block needs a body
        "begin proc p is x := 1 end",
        "proc p is x := 1",        # procs only live in begin blocks
        "if true then x := 1",     # else is mandatory
        "x := true + 1",           # boolean in arithmetic position
        "x := 1 and true",         # arithmetic in boolean position
        "while 4 do x := 1",       # condition must be boolean-shaped
        "var Nat beginscope := 1",
        "beginscope",
        "endscope",
        "protected x := 1 end",
        "x := (1",                 # unbalanced parenthesis
        "x := 1; ",                # dangling separator
    ])
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_program(text)

    def test_error_carries_position_and_expectations(self):
        with pytest.raises(ParseError) as info:
            parse_program("var Nat x :=\n  @")
        assert info.value.line == 2
        with pytest.raises(ParseError) as info:
            parse_program("x + 1")
        assert info.value.expected
        assert info.value.line == 1

    @pytest.mark.parametrize("text,position,message", [
        ("var Nat x := 1; proc p is x := 2", (1, 17),
         "procedure declaration 'p' outside a begin block"),
        ("begin var Nat x := 1; x := 2; proc p is x := 3 end", (1, 31),
         "procedure declaration 'p' outside a begin block"),
        # reported before the syntax error that follows it
        ("proc p is x := 1; x := (", (1, 1),
         "procedure declaration 'p' outside a begin block"),
        ("var Nat x := 1 + true", (1, 18),
         "boolean expression in arithmetic position"),
        ("var Bool b := not 3", (1, 19),
         "arithmetic expression in boolean position"),
        # numerals are ASCII digits only, like identifiers
        ("var Nat x := ²", (1, 14), "unexpected character '²'"),
        # Python's default int/str conversion limit is 4300 digits
        pytest.param("var Nat x := " + "9" * 4301, (1, 14),
                     "numeral over 4300 digits", id="numeral-of-4301-digits"),
        # sorts are checked once the expression is read, root first and
        # left to right, so the first wrong node is reported
        ("x := (1 and 2) + 3", (1, 9), "boolean expression in arithmetic position"),
        ("x := not (1 + true)", (1, 13), "arithmetic expression in boolean position"),
        ("x := true + true", (1, 6), "boolean expression in arithmetic position"),
        ("while (1 = true) and 2 do x := 1", (1, 12),
         "boolean expression in arithmetic position"),
        ("x := 1 ≤ ¬ 2", (1, 10), "boolean expression in arithmetic position"),
        # a syntax error ends the expression before its sorts are checked
        ("x := (true + 1) + (", (1, 20), "unexpected 'end of input'"),
        # end of input after a comment sits where the comment starts
        ("x := // note", (1, 6), "unexpected 'end of input'"),
    ])
    def test_error_points_at_offending_token(self, text, position, message):
        with pytest.raises(ParseError) as info:
            parse_program(text)
        assert (info.value.line, info.value.column) == position
        assert info.value.message == message

    def test_runtime_keyword_message(self):
        with pytest.raises(ParseError, match="runtime-only keyword"):
            parse_program("beginscope")

    @pytest.mark.parametrize("text,position,message", [
        # after comments, Unicode operator spellings and \r\n line ends
        ("// note\nx := 1 +", (2, 9), "unexpected 'end of input'"),
        ("x := 1 // a\n y := 2", (2, 2), "unexpected 'y'"),
        ("// a\r\n// b\r\n  x := 1 − true", (3, 12),
         "boolean expression in arithmetic position"),
        ("x := 1; // c\r\n  y := ¬ 1 ≤ 2", (2, 8),
         "boolean expression in arithmetic position"),
        ("x := (1 − 2) ∧ ¬ true", (1, 9),
         "arithmetic expression in boolean position"),
        ("var Nat x := 1;\r\n// c\r\nx := x ≤ 1 + true", (3, 14),
         "boolean expression in arithmetic position"),
        ("if x ≤ 1 then // c\r\n x := 2 ∧ else y := 1", (2, 11),
         "unexpected 'else'"),
        ("while ¬ x do\r\n\t// c\r\n\tcall", (3, 6),
         "unexpected 'end of input'"),
        # a syntax error before a bad character: the character comes first
        ("x := ; $", (1, 8), "unexpected character '$'"),
        ("x := (// c\n ; 1 ≤ ²", (2, 8), "unexpected character '²'"),
        # a sort error is placed by the index of its token
        ("// c\n\tx := 1 +\r\n  true", (3, 3),
         "boolean expression in arithmetic position"),
        ("x := 1;\n  y := 2 * (3 − false)", (2, 17),
         "boolean expression in arithmetic position"),
        ("x := true ∧ // c\r\n 7", (2, 2),
         "arithmetic expression in boolean position"),
    ])
    def test_error_matches_oracle(self, text, position, message):
        got = _parse(parse_program, text)
        assert got == _parse(oracle_parse_program, text)
        assert got[1:4] == (message, *position)


# Pieces of source text for the differential tokenizer test: tokens of
# every class, comment starts, line ends and other whitespace, the Unicode
# operator spellings, and characters that are alphabetic or numeric to
# Python yet rejected in source.
TOKEN_PIECES = sorted(KEYWORDS) + [
    "x", "y_1", "Ab9", "0", "42", "007", "9" * 4301,
    ":=", "<=", ";", "{", "}", "(", ")", "+", "-", "*", "=", ":", "<", "/",
    "//", "\n", "\r", "\t", " ", "\xa0", "\u2028", "\x85",
    "≤", "∧", "¬", "−", "²", "٣", "é",
]

# Blanks (characters other than '\n' that `str.isspace` accepts), ASCII
# and not, alone and in runs.
BLANK_PIECES = ["\t", "\r", "\x0b", "\x0c", "\x85", " ", "\u3000", "\xa0",
                "\u2028", "   ", "\t \r"]

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def _scan(tokenizer, text):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenizer(text)]
    except ParseError as e:
        return ("error", e.message, e.line, e.column)


class TestTokenizeMatchesOracle:
    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=30).map("".join))
    def test_token_soup(self, text):
        assert _scan(tokenize, text) == _scan(oracle_tokenize, text)

    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("**/*.whl")),
                             ids=lambda p: p.name)
    def test_sample_programs(self, path):
        text = path.read_text("utf-8")
        assert _scan(tokenize, text) == _scan(oracle_tokenize, text)

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(TOKEN_PIECES + BLANK_PIECES * 4),
                    max_size=30).map("".join))
    def test_blank_heavy_soup(self, text):
        assert _scan(tokenize, text) == _scan(oracle_tokenize, text)

    @pytest.mark.parametrize("after", [
        "", "$", "é", "//", "// note", "/", "\n", "\nx", "9" * 4301,
        "≤", "≤ 1", "x", ":=",
    ])
    @pytest.mark.parametrize("before", ["", "x", "x := 1;", "x\n", "// c\n"])
    def test_blanks_before_each_kind(self, before, after):
        # Blanks are scanned as part of the next token's match, so they
        # must move no column: of the token, of the error, of end of input.
        for blanks in BLANK_PIECES + ["".join(BLANK_PIECES)]:
            text = before + blanks + after
            assert _scan(tokenize, text) == _scan(oracle_tokenize, text)

    def test_long_blank_runs(self):
        # A run of blanks at the end of input is one match, not a search
        # from each of its characters: that search takes time quadratic in
        # the run's length, about 20 s for these 20,000 blanks.
        for text in ("x" + " " * 20_000, "\t" * 20_000,
                     "x" + " \r" * 10_000 + "\ny"):
            start = time.perf_counter()
            tokens = _scan(tokenize, text)
            assert time.perf_counter() - start < 2.0
            assert tokens == _scan(oracle_tokenize, text)

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(TOKEN_PIECES + BLANK_PIECES),
                    max_size=20).map("".join))
    def test_tokens_are_named_tuples(self, text):
        try:
            tokens = tokenize(text)
        except ParseError:
            return
        for tok in tokens:
            assert type(tok) is Token
            assert (tok.kind, tok.text, tok.line, tok.column) == tuple(tok)
        assert tokens[-1].kind == "eof"

    @pytest.mark.parametrize("name,expected", [
        ("x", True), ("y_1", True), (" x", False), ("x ", False),
        ("\tx", False), ("x\n", False), ("var", False), ("1x", False),
        ("", False), ("x y", False),
    ])
    def test_is_identifier(self, name, expected):
        assert is_identifier(name) is expected


def _assert_text_scan_matches_tokenize(text):
    try:
        expected = [tok.text for tok in tokenize(text)]
    except ParseError:
        expected = None
    assert _texts(text) == expected


class TestTextScanMatchesTokenize:
    # The parser reads the token texts of one findall, and takes the
    # positioned `tokenize` only where that reports an error (None here).

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=30).map("".join))
    def test_token_soup(self, text):
        _assert_text_scan_matches_tokenize(text)

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(TOKEN_PIECES + BLANK_PIECES * 4),
                    max_size=30).map("".join))
    def test_blank_heavy_soup(self, text):
        _assert_text_scan_matches_tokenize(text)

    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("**/*.whl")),
                             ids=lambda p: p.name)
    def test_sample_programs(self, path):
        _assert_text_scan_matches_tokenize(path.read_text("utf-8"))

    def test_frontend_pool_programs(self):
        workloads = _load_perfbench("workloads")
        for index in range(workloads.FRONTEND_POOL):
            text, _ = workloads.frontend_program(index)
            _assert_text_scan_matches_tokenize(text)

    @pytest.mark.parametrize("ending", [
        "", "\n", " ", "\t \r", "\xa0", "   \n  ", "// note", "//",
        "// note\n", "\n//", "// a\n// b", "$", "9" * 4301,
    ])
    @pytest.mark.parametrize("before", ["", "x", "x := 1", "x := 1 ≤"])
    def test_endings(self, before, ending):
        # End of input matches once more, empty, after a match that skips
        # trailing blanks or a comment; the text scan keeps one "".
        text = before + ending
        _assert_text_scan_matches_tokenize(text)
        texts = _texts(text)
        assert texts is None or texts.count("") == 1


def _parse(parser, text):
    try:
        return parser(text)
    except ParseError as e:
        return ("error", e.message, e.line, e.column, e.expected)


def _assert_parse_matches_oracle(text):
    try:
        expected = _parse(oracle_parse_program, text)
    except RecursionError:
        return
    assert _parse(parse_program, text) == expected


def _deletion_mutants(text, most=4):
    """`text` with each run of 1 to `most` consecutive tokens cut out."""
    line_starts = [0]
    for line in text.split("\n"):
        line_starts.append(line_starts[-1] + len(line) + 1)
    spans = []
    for tok in tokenize(text)[:-1]:
        start = line_starts[tok.line - 1] + tok.column - 1
        # An operator's Unicode spelling is one character.
        size = len(tok.text) if text.startswith(tok.text, start) else 1
        spans.append((start, start + size))
    for i in range(len(spans)):
        for j in range(i, min(i + most, len(spans))):
            yield text[:spans[i][0]] + text[spans[j][1]:]


EXPR_PIECES = ["x", "y", "0", "7", "true", "false", "(", ")", "not", "and",
               "=", "<=", "+", "-", "*"]
STMT_PIECES = [":=", ";", "var", "Nat", "Bool", "if", "then", "else",
               "while", "do", "begin", "end", "proc", "is", "call", "par",
               "protect", "{", "}", "beginscope"]
BINARY_SYMBOLS = ["and", "=", "<=", "+", "-", "*"]


def _operator_nestings():
    """Each ordered pair of binary operators, nested either way and
    unbraced, alone and under `not`, over operands of each sort."""
    for op1, op2 in product(BINARY_SYMBOLS, repeat=2):
        for a, b, c in (("a", "b", "c"), ("1", "2", "3"),
                        ("true", "false", "true")):
            for e in (f"{a} {op1} ({b} {op2} {c})",
                      f"({a} {op1} {b}) {op2} {c}",
                      f"{a} {op1} {b} {op2} {c}"):
                for form in (e, f"not {e}", f"not ({e})"):
                    yield f"x := {form}"
                    yield f"while {form} do x := 1"


class TestParseMatchesOracle:
    """The parser against the one with a method per precedence level: the
    same tree, or the same error with the same position and expectations."""

    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("**/*.whl")),
                             ids=lambda p: p.name)
    def test_sample_programs_and_deletion_mutants(self, path):
        text = path.read_text("utf-8")
        _assert_parse_matches_oracle(text)
        for mutant in _deletion_mutants(text):
            _assert_parse_matches_oracle(mutant)

    @settings(max_examples=1000)
    @given(st.sampled_from(["", "x :=", "var Bool x :=", "if", "while"]),
           st.lists(st.sampled_from(EXPR_PIECES * 3 + STMT_PIECES),
                    max_size=20))
    def test_token_streams(self, head, pieces):
        _assert_parse_matches_oracle(" ".join([head, *pieces]))

    def test_operator_nestings(self):
        for text in _operator_nestings():
            _assert_parse_matches_oracle(text)


class TestPretty:
    @pytest.mark.parametrize("stmt,text", [
        (Decl(NAT, "y", NatLit(4)), "var Nat y := 4"),
        (ValStmt(VoidV()), "void"),
        (Protect(Update("x", NatLit(2))), "protect x := 2 end"),
        (Protected(Update("x", NatLit(2))), "protected x := 2 end"),
        (BeginScope(), "beginscope"),
        (Empty(), "ε"),
        (ExprStmt(Add(NatLit(1), NatLit(2))), "1 + 2"),
        (Seq(Seq(Update("a", NatLit(1)), Update("b", NatLit(2))),
             Update("c", NatLit(3))),
         "{ a := 1; b := 2 }; c := 3"),
        (Par(Update("a", NatLit(1)), Par(Update("b", NatLit(2)),
                                         Update("c", NatLit(3)))),
         "a := 1 par { b := 2 par c := 3 }"),
        (Seq(Update("a", NatLit(1)), Par(Update("b", NatLit(2)),
                                         Update("c", NatLit(3)))),
         "a := 1; { b := 2 par c := 3 }"),
        (While(TrueLit(), Seq(Update("a", NatLit(1)), Update("b", NatLit(2)))),
         "while true do { a := 1; b := 2 }"),
    ])
    def test_statements(self, stmt, text):
        assert pretty(stmt) == text

    @pytest.mark.parametrize("expr,text", [
        (Add(Var("a"), Add(Var("b"), Var("c"))), "a + (b + c)"),
        (Add(Add(Var("a"), Var("b")), Var("c")), "a + b + c"),
        (Sub(Var("a"), Sub(Var("b"), Var("c"))), "a - (b - c)"),
        (Mul(Add(Var("a"), Var("b")), Var("c")), "(a + b) * c"),
        (Not(And(Var("a"), Var("b"))), "not (a and b)"),
        (And(And(Var("a"), Var("b")), Var("c")), "(a and b) and c"),
        (And(Var("a"), And(Var("b"), Var("c"))), "a and b and c"),
        (Eq(Add(Var("a"), NatLit(1)), Var("b")), "a + 1 = b"),
        (Not(Not(Var("a"))), "not not a"),
    ])
    def test_expressions(self, expr, text):
        assert pretty_expr(expr) == text

    def test_nested_braces_print_in_linear_time(self):
        # Each braced node is printed once, not once bare and once braced,
        # which would take time exponential in the nesting depth.
        stmt = Update("a", NatLit(0))
        for _ in range(200):
            stmt = Par(Update("a", NatLit(1)), stmt)
        assert pretty(stmt) == "a := 1 par { " * 199 + "a := 1 par a := 0" + " }" * 199

    def test_begin_body_leading_decl_is_braced(self):
        block = Begin((), (), Seq(Decl(NAT, "x", NatLit(1)),
                                  Update("x", NatLit(2))))
        text = pretty(block)
        assert text == "begin { var Nat x := 1; x := 2 } end"
        assert parse_program(text) == block


class TestPrettyMatchesOracle:
    """The printers against the `match` printers without a memo."""

    @settings(max_examples=400)
    @given(runtime_stmts)
    def test_statements(self, stmt):
        assert pretty(stmt) == oracle_pretty(stmt)

    @settings(max_examples=400)
    @given(exprs)
    def test_expressions(self, e):
        assert pretty_expr(e) == oracle_pretty_expr(e)

    @settings(max_examples=200, deadline=None)
    @given(runtime_stmts)
    def test_printer_series(self, stmt):
        # The states of an exploration share most of their nodes; print
        # them through one Printer, advancing after each, as to_dot does.
        graph = explore(Configuration(SEEDED_STORE, Env(), stmt), max_states=40)
        printer = Printer()
        for node in graph.nodes:
            assert printer.stmt(node.stmt) == oracle_pretty(node.stmt)
            printer.advance()


class TestFlattening:
    @settings(max_examples=200)
    @given(source_stmts)
    def test_begin_sections_stay_flat_through_reparse(self, stmt):
        reparsed = parse_program(pretty(stmt))

        def walk(s):
            if isinstance(s, Begin):
                assert all(isinstance(d, Decl) for d in s.decls)
                assert all(isinstance(p, ProcDecl) for p in s.procs)
                for p in s.procs:
                    walk(p.body)
                walk(s.body)
            for attr in ("first", "second", "then_branch", "else_branch",
                         "body", "left", "right"):
                child = getattr(s, attr, None)
                if child is not None and not isinstance(child, str):
                    walk(child)

        walk(reparsed)


class TestDecompose:
    def test_single_expression_redex_under_update(self):
        s = Update("x", Add(NatLit(1), NatLit(2)))
        [(ctx, redex)] = decompose(s)
        assert ctx == ((s, "rhs"),)
        assert redex == Add(NatLit(1), NatLit(2))

    def test_seq_value_head_is_a_redex(self):
        s = Seq(ValStmt(VoidV()), Update("x", NatLit(1)))
        [(ctx, redex)] = decompose(s)
        assert ctx == ()
        assert redex == s

    def test_par_offers_both_sides(self):
        s = Par(Update("x", NatLit(1)), Update("x", NatLit(2)))
        found = decompose(s)
        assert len(found) == 2

    def test_protected_body_blocks_sibling(self):
        s = Par(Protected(Update("x", NatLit(2))), Update("x", NatLit(6)))
        found = decompose(s)
        assert len(found) == 1
        assert found[0][1] == Update("x", NatLit(2))

    def test_right_operand_needs_value_left(self):
        s = Update("x", Add(Add(NatLit(1), NatLit(2)), Add(NatLit(3), NatLit(4))))
        [(ctx, redex)] = decompose(s)
        assert redex == Add(NatLit(1), NatLit(2))

    def test_decl_rhs_context(self):
        s = Decl(NAT, "x", Var("y"))
        [(ctx, redex)] = decompose(s)
        assert ctx == ((s, "rhs"),)
        assert redex == Var("y")

    @settings(max_examples=300)
    @given(runtime_stmts)
    def test_plug_inverts_decompose(self, stmt):
        for ctx, redex in decompose(stmt):
            assert plug(ctx, redex) == stmt

    @settings(max_examples=300)
    @given(runtime_stmts)
    def test_matches_brute_force_enumeration(self, stmt):
        assert decompose(stmt) == oracle_redex_positions(stmt)


class TestRoundTrip:
    @settings(max_examples=400)
    @given(source_stmts)
    def test_parse_of_pretty_is_identity(self, stmt):
        assert parse_program(pretty(stmt)) == stmt

    def test_token_positions(self):
        tokens = tokenize("x := 1;\n  y := 2")
        first_y = next(t for t in tokens if t.text == "y")
        assert (first_y.line, first_y.column) == (2, 3)
