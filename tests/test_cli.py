"""End-to-end command-line runs: via subprocess, and in process for the
exit-code fuzz test, the collector tests and parser reuse."""

import gc
import glob
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from whilelang import cli
from whilelang.parser import KEYWORDS

ROOT = Path(__file__).resolve().parent.parent

# A block that declares and calls a procedure, run from a store of two
# frames: the procedure store must hold as many frames as the store.
TWO_FRAME_PROGRAM = "begin proc p is x := x + 1; call p end"
TWO_FRAME_STORE = "({x=1}, {x=5})"


def _child_env(**overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    return env


def whilelang(*args, cwd=None, **env_overrides):
    return subprocess.run(
        [sys.executable, "-m", "whilelang.cli", *args],
        capture_output=True, text=True, env=_child_env(**env_overrides),
        cwd=cwd or ROOT)


@pytest.fixture
def tmp_program(tmp_path):
    def write(text, name="prog.whl"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


@pytest.fixture
def store_file(tmp_path):
    def write(text):
        path = tmp_path / "store.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


class TestParse:
    def test_valid_program_prints_pretty_form(self, tmp_program):
        r = whilelang("parse", tmp_program("var  Nat   y := 4 ;  y := y+1"))
        assert r.returncode == 0
        assert r.stdout == "var Nat y := 4; y := y + 1\n"

    def test_runtime_keyword_rejected(self, tmp_program):
        r = whilelang("parse", tmp_program("beginscope"))
        assert r.returncode == 1
        assert "runtime-only keyword" in r.stderr

    def test_empty_file_rejected(self, tmp_program):
        r = whilelang("parse", tmp_program(""))
        assert r.returncode == 1


class TestCheck:
    def test_accepted(self, tmp_program):
        r = whilelang("check", tmp_program(
            "var Nat x := 1; while x <= 4 do x := x + 1"))
        assert r.returncode == 0
        assert r.stdout == "ok: Cmd\n"

    def test_rejected_names_the_subterm(self, tmp_program):
        r = whilelang("check", tmp_program(
            "var Nat y := 1;"
            " begin var Nat x := 2; var Bool y := true x := x + y end"))
        assert r.returncode == 2
        assert "x + y" in r.stderr
        assert "expected Nat, found Bool" in r.stderr

    def test_unparseable_is_exit_1(self, tmp_program):
        r = whilelang("check", tmp_program("0"))
        assert r.returncode == 1

    def test_emit_derivation(self, tmp_program, tmp_path):
        out = tmp_path / "derivation.txt"
        r = whilelang("check", tmp_program("var Nat x := 1"),
                      "--emit-derivation", "--out", str(out))
        assert r.returncode == 0
        assert out.read_text().startswith("T-Assign:")


class TestRun:
    def test_block_with_initial_store(self, tmp_program, store_file):
        r = whilelang("run", tmp_program("begin var Nat a := 4; b := 2 end"),
                      "--initial-store", store_file("({a=3, b=5})"))
        assert r.returncode == 0
        assert r.stdout == "void ({a=3, b=2})\n"

    def test_unbound_is_stuck_exit_3(self, tmp_program):
        r = whilelang("run", tmp_program("x := 1"))
        assert r.returncode == 3
        assert "unbound variable x" in r.stderr

    def test_infinite_loop_budget_exit_4(self, tmp_program):
        r = whilelang("run", tmp_program("var Nat x := 0; while true do x := 1"),
                      "--max-steps", "10")
        assert r.returncode == 4

    def test_long_straight_line(self, tmp_program):
        # `;` is read in a loop, so the parser takes no stack per statement
        text = "var Nat x := 0; " + "; ".join(
            f"x := x + {i}" for i in range(1, 3001))
        r = whilelang("run", tmp_program(text))
        assert r.returncode == 0
        assert r.stdout == "void ({x=4501500})\n"

    def test_checked_flag_stops_type_errors(self, tmp_program):
        r = whilelang("run", tmp_program("var Nat x := true"), "--checked")
        assert r.returncode == 2

    def test_unchecked_run_does_not_typecheck(self, tmp_program):
        r = whilelang("run", tmp_program("var Nat x := true"))
        assert r.returncode == 0
        assert r.stdout == "void ({x=true})\n"


class TestTrace:
    def test_golden_store_column(self, tmp_program, store_file):
        r = whilelang("trace", tmp_program("begin var Nat a := 4; b := 2 end"),
                      "--initial-store", store_file("({a=3, b=5})"))
        assert r.returncode == 0
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert [x["store"] for x in lines[:-1]] == [
            "({a=3, b=5})",
            "({a=3, b=5}, {})",
            "({a=3, b=5}, {a=4})",
            "({a=3, b=2}, {a=4})",
            "({a=3, b=2})",
        ]
        assert lines[-1]["status"] == "terminated"

    def test_store_file_sets_the_depth_of_both_stores(self, tmp_program,
                                                      store_file):
        r = whilelang("trace", tmp_program(TWO_FRAME_PROGRAM),
                      "--initial-store", store_file(TWO_FRAME_STORE))
        assert r.returncode == 0
        lines = [json.loads(line) for line in r.stdout.splitlines()[:-1]]
        assert [(x["store"].count("{"), x["procs"].count("{"))
                for x in lines] == [(n, n) for n in (2, 3, 3, 3, 3, 3, 3, 2)]


class TestGraphAndOutcomes:
    def test_parfree_program_gives_linear_dot_chain(self, tmp_program):
        r = whilelang("graph", tmp_program("var Nat x := 1; x := x + 1"))
        assert r.returncode == 0
        edges = [line for line in r.stdout.splitlines() if " -> " in line]
        nodes = [line for line in r.stdout.splitlines() if "[label=" in line
                 and "->" not in line]
        assert len(edges) == len(nodes) - 1

    def test_protected_outcomes(self, tmp_program):
        r = whilelang("outcomes", tmp_program(
            "var Nat x := 0; protect x := 2; x := 4 end par x := 6"))
        assert r.returncode == 0
        assert r.stdout == (
            "terminal: void ({x=4})\n"
            "terminal: void ({x=6})\n"
            "complete: true\n"
        )

    def test_unprotected_variant_is_strictly_larger(self, tmp_program, store_file):
        protected = whilelang(
            "outcomes",
            tmp_program("protect x := x + 1; x := x * 2 end par x := 10", "p.whl"),
            "--initial-store", store_file("({x=0})"))
        unprotected = whilelang(
            "outcomes",
            tmp_program("x := x + 1; x := x * 2 par x := 10", "u.whl"),
            "--initial-store", store_file("({x=0})"))
        want = {"terminal: void ({x=10})", "terminal: void ({x=22})"}
        got_protected = set(protected.stdout.splitlines()) - {"complete: true"}
        got_unprotected = set(unprotected.stdout.splitlines()) - {"complete: true"}
        assert got_protected == want
        assert got_protected < got_unprotected
        assert "terminal: void ({x=20})" in got_unprotected

    def test_truncated_graph_exits_4(self, tmp_program):
        r = whilelang("graph", tmp_program(
            "var Nat x := 0; while true do x := x + 1"),
            "--max-states", "5")
        assert r.returncode == 4

    def test_stuck_leaves_listed(self, tmp_program):
        r = whilelang("outcomes", tmp_program("x := 1"))
        assert r.returncode == 0
        assert "stuck: unbound variable x" in r.stdout

    @pytest.mark.parametrize("program,stdout", [
        # Either block may redeclare `t` first; the full graph has a leaf
        # stuck on each reason, and symmetry merges the two orders.
        ("var Nat s := 0; begin var Nat t := 0; call f end "
         "par begin var Nat t := 0; call f end",
         "stuck: unbound procedure f\n"
         "stuck: variable t already declared in this scope\n"
         "complete: true\n"),
        # One leaf with two stuck redexes: both are listed.
        ("x := y par call f",
         "stuck: unbound procedure f\n"
         "stuck: unbound variable y\n"
         "complete: true\n"),
    ], ids=["two-leaves", "one-leaf"])
    def test_every_stuck_redex_listed(self, tmp_program, program, stdout):
        r = whilelang("outcomes", tmp_program(program))
        assert (r.returncode, r.stdout, r.stderr) == (0, stdout, "")

    def test_symmetric_threads_fit_the_default_budget(self, tmp_program):
        # Three copies of one four-update thread: 161,795 states under
        # partial-order reduction alone, 38,290 when the copies' order
        # is ignored, inside the default --max-states of 50,000.
        workloads = _load_perfbench("workloads")
        r = whilelang("outcomes", tmp_program(
            workloads.shared_program("x", 3, 4, 1)))
        assert (r.returncode, r.stderr) == (0, "")
        stores = [f"({{x={v}}})" for v in workloads.shared_finals(3, 4, 1)]
        assert r.stdout == workloads.outcomes_text(stores)


class TestUsageAndIOErrors:
    """Exit 5 with one line on stderr and no traceback."""

    @staticmethod
    def assert_usage_error(r, fragment):
        assert r.returncode == 5
        assert r.stdout == ""
        assert r.stderr.count("\n") == 1
        assert r.stderr.startswith("whilelang: error: ")
        assert fragment in r.stderr

    def test_argparse_error(self, tmp_program):
        r = whilelang("run", tmp_program("var Nat x := 1"), "--bogus")
        self.assert_usage_error(r, "unrecognized arguments: --bogus")

    def test_missing_input_file(self, tmp_path):
        r = whilelang("run", str(tmp_path / "absent.whl"))
        self.assert_usage_error(r, "cannot read")

    def test_malformed_store_file(self, tmp_program, store_file):
        r = whilelang("run", tmp_program("x := 1"),
                      "--initial-store", store_file("({x=1"))
        self.assert_usage_error(r, "malformed store file")

    def test_duplicate_binding_in_store_file(self, tmp_program, store_file):
        r = whilelang("run", tmp_program("x := x + 1"),
                      "--initial-store", store_file("({x=1, x=2})"))
        self.assert_usage_error(r, "duplicate binding 'x'")

    def test_unmentionable_name_in_store_file(self, tmp_program, store_file):
        r = whilelang("run", tmp_program("x := 1"),
                      "--initial-store", store_file("({x y=2, x=0})"))
        self.assert_usage_error(r, "malformed binding 'x y=2'")

    def test_unencodable_standard_output(self):
        r = whilelang("check", "programs/sum_to_five.whl", "--emit-derivation",
                      PYTHONIOENCODING="ascii")
        self.assert_usage_error(r, "cannot write standard output: ")

    def test_standard_output_pipe_closed(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "whilelang.cli", "run",
                 "programs/sum_to_five.whl"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=_child_env(), cwd=ROOT)
        finally:
            os.close(write_end)
        assert r.returncode == 5
        assert r.stderr == \
            "whilelang: error: cannot write standard output: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a full device")
    @pytest.mark.parametrize("command,program", [
        ("run", "sum_to_five"),       # less than one write buffer
        ("graph", "nested_loops"),    # about 26 KB, several buffers
    ])
    def test_standard_output_device_full(self, command, program):
        with open("/dev/full", "w") as full:
            r = subprocess.run(
                [sys.executable, "-m", "whilelang.cli", command,
                 f"programs/{program}.whl"],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env=_child_env(), cwd=ROOT)
        assert r.returncode == 5
        assert r.stderr == ("whilelang: error: cannot write standard output:"
                            " No space left on device\n")

    def test_long_store_value_is_not_echoed(self, tmp_program, store_file,
                                            tmp_path):
        # Run from the store's directory, so its path is short in the line.
        store_file("({a=" + "9" * 4301 + "})")
        r = whilelang("run", tmp_program("a := 1"),
                      "--initial-store", "store.txt", cwd=tmp_path)
        self.assert_usage_error(r, "not a value")
        assert len(r.stderr) < 200

    def test_zero_state_budget(self, tmp_program):
        r = whilelang("outcomes", tmp_program("var Nat x := 1"),
                      "--max-states", "0")
        self.assert_usage_error(r, "argument --max-states")

    def test_zero_depth_budget(self, tmp_program):
        r = whilelang("graph", tmp_program("var Nat x := 1"),
                      "--max-depth", "0")
        self.assert_usage_error(r, "argument --max-depth")

    def test_zero_step_budget(self, tmp_program):
        r = whilelang("run", tmp_program("var Nat x := 1"),
                      "--max-steps", "0")
        self.assert_usage_error(r, "argument --max-steps")


def parenthesized_one(levels):
    return "var Nat x := " + "(" * levels + "1" + ")" * levels


class TestRunawayNesting:
    """Exit 4 with one line on stderr and no traceback."""

    # Each call wraps the next `call p` in one more region, so the term
    # grows until walking it exceeds the recursion limit.
    RUNAWAY = "var Nat a := 0; begin proc p is protect call p end; call p end"

    @pytest.mark.parametrize("command,program", [
        ("outcomes", RUNAWAY),
        ("run", RUNAWAY),
        ("parse", parenthesized_one(5000)),
        ("check", parenthesized_one(5000)),
        ("run", parenthesized_one(5000)),
    ], ids=["outcomes", "run", "parse-parentheses", "check-parentheses",
            "run-parentheses"])
    def test_recursion_limit_is_exit_4(self, tmp_program, command, program):
        r = whilelang(command, tmp_program(program))
        assert r.returncode == 4
        assert r.stdout == ""
        assert r.stderr == (
            "whilelang: error: term nesting exceeds the recursion limit\n")


class TestDeepParentheses:
    """The parser takes two stack frames per parenthesis level, so 250
    levels around a numeral stay inside the recursion limit."""

    @pytest.mark.parametrize("command,stdout", [
        ("parse", "var Nat x := 1\n"),
        ("check", "ok: Cmd\n"),
        ("run", "void ({x=1})\n"),
    ], ids=["parse", "check", "run"])
    def test_250_levels(self, tmp_program, command, stdout):
        r = whilelang(command, tmp_program(parenthesized_one(250)))
        assert (r.returncode, r.stdout, r.stderr) == (0, stdout, "")


class TestNumeralBound:
    """Numerals have at most 4300 digits: a longer one in source is a parse
    error, and a sum or product past it ends the run like a budget."""

    # x squares each iteration and passes 4300 digits in the 14th.
    SQUARING = ("var Nat x := 2; var Nat i := 0; "
                "while i <= 13 do { x := x * x; i := i + 1 }")

    def test_long_source_numeral_is_exit_1(self, tmp_program):
        r = whilelang("run", tmp_program("var Nat x := " + "9" * 4301))
        assert r.returncode == 1
        assert r.stderr == "parse error at 1:14: numeral over 4300 digits\n"

    @pytest.mark.parametrize("command", ["run", "trace", "graph", "outcomes"])
    def test_growing_numeral_is_exit_4(self, tmp_program, command):
        budget = ["--max-steps", "1000"] if command in ("run", "trace") else []
        start = time.monotonic()
        r = whilelang(command, tmp_program(self.SQUARING), *budget)
        assert time.monotonic() - start < 10
        assert r.returncode == 4
        assert r.stdout == ""
        assert r.stderr == "whilelang: error: a numeral exceeds 4300 digits\n"


class TestDeterminism:
    # sha256 of each artifact as whilelang wrote it before the printer shared
    # subterms across configurations: a byte that changes shows here, while
    # criterion 7 compares only reruns of one build.
    GOLDENS = [
        ("trace", "programs/nested_loops.whl",
         "24c2028ddc44ac225bfbdfcc16627dccbab27b124252382b1f1be97695885624"),
        ("trace", "programs/proc_updates_caller.whl",
         "29574cd5c652b9700f1fd80889b53a5b9c9a45a9d8f3ab4431b118877b42990e"),
        ("graph", None,
         "91a065b01d5dcb46cc91a6f389aa24c52b24d768f2b9a9b73d90471ea6a7a9b7"),
        # Bool values in the store column
        ("trace", "programs/bool_roundtrip.whl",
         "ac0349c3ba16a404642eb38218e7fa6ecc2d0a0072bd1b2d84f67f89c2befe92"),
        ("outcomes", "programs/logic_gates.whl",
         "4fa86c0a219ad846a03020b87f14656adfd041ba6592c3a7795e6c3b0014ac41"),
        # Derivations, written before subjects and environments were
        # printed once per walk
        ("check", "programs/nested_loops.whl",
         "c4e5c39d2e3b1f3d59d3ed966ea8ab620ab2b776a491d1c1b94dd1ffd6078a9f"),
        ("check", "programs/two_procs.whl",
         "8da7ea003a54a33b56700edc29bae81cc1ee2079311310395420787bf2a1e215"),
        ("check", "programs/bool_roundtrip.whl",
         "f0ffaf29a2c092e9b682048eaefd4c4ff3e476254f79add83ecf411006bf13a3"),
    ]

    @pytest.mark.parametrize("command, program, digest", GOLDENS)
    def test_artifact_bytes_match_golden(self, tmp_program, tmp_path,
                                         command, program, digest):
        # No program file means the criterion 3 program.
        path = program or tmp_program(
            "var Nat x := 0; { protect x := x + 1; x := x * 2 end } par x := 10")
        out = tmp_path / "artifact"
        derivation = ["--emit-derivation"] if command == "check" else []
        r = whilelang(command, path, *derivation, "--out", str(out))
        assert r.returncode == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_truncated_outcomes_independent_of_hash_seed(self, tmp_program):
        # Par sides are ordered by structure, never by hash or id, so a
        # budget cuts reduced exploration at the same states in every run.
        prog = tmp_program(_load_perfbench("workloads").shared_program(
            "x", 3, 3, 1))
        runs = [whilelang("outcomes", prog, "--max-states", "500",
                          PYTHONHASHSEED=seed) for seed in ("0", "1")]
        assert [r.returncode for r in runs] == [4, 4]
        assert runs[0].stdout.endswith("complete: false\n")
        assert runs[0].stdout == runs[1].stdout

    def test_identical_flags_identical_bytes(self, tmp_program, tmp_path):
        prog = tmp_program(
            "var Nat x := 0; { protect x := x + 1; x := x * 2 end } par x := 10")
        runs = [whilelang("graph", prog).stdout for _ in range(2)]
        assert runs[0] == runs[1]
        traces = [whilelang("trace", prog, "--schedule", "random",
                            "--seed", "13").stdout for _ in range(2)]
        assert traces[0] == traces[1]


def _load_perfbench(name):
    """A module of the benchmark harness, which is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestBenchmarkBoundaries:
    def test_every_traced_boundary_resolves(self):
        # The traced benchmark run wraps each (module, attribute) that
        # perfbench/spans.py lists, looking the module up among those
        # `whilelang.cli` imported; a name deleted or renamed there stops
        # that run.
        spans = _load_perfbench("spans")
        import whilelang.cli  # noqa: F401
        for module, attribute, _ in spans.BOUNDARIES:
            assert module in sys.modules, module
            assert callable(getattr(sys.modules[module], attribute, None)), \
                f"{module}.{attribute}"

    def test_harness_self_check_passes(self):
        # Among its checks: the tracer puts back every attribute it
        # wrapped, also where two attributes name one function.
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--self-check"],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT)
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.splitlines() == [
            "PASS same seed gives byte-identical inputs",
            "PASS shared-variable model agrees with whilelang outcomes",
            "PASS a wrong reference fails its jobs",
            "PASS tracer restores every wrapped attribute",
        ]


# A program is a few statements joined by `;` or `par`, with a few items
# inserted anywhere: single tokens of the source vocabulary (ASCII and
# other Unicode numerals among them, and one numeral over the 4300-digit
# bound) or free text. Programs without insertions mostly parse, type-check
# and run; the rest send malformed input to every stage from the tokenizer
# on.
FUZZ_STATEMENTS = [
    "var Nat x := 0", "var Bool y := true", "x := x + 1", "x := x - 2",
    "y := not y", "x := y", "y := x = 0", "x := ²", "x := ٣", "call p",
    "while x <= 3 do x := x + 1", "while true do x := x * 2",
    "if y then x := 1 else x := 2", "begin proc p is x := x * 2; call p end",
    "protect x := x + 1 end", "{ x := 7 par x := 0 }", "x := " + "9" * 4301,
]
FUZZ_WORDS = sorted(KEYWORDS) + [
    ":=", "<=", ";", "{", "}", "(", ")", "+", "-", "*", "=", "≤", "∧", "¬",
    "−", "//", "0", "1", "7", "²", "٣", "9" * 4301, "x", "y", "p",
]
FUZZ_STORES = {
    "good": "({x=1, y=true}, {x=2})",
    "malformed": "({x=1",
    "void": "({x=void, y=2})",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_STORES.items():
        (path / f"{name}.txt").write_text(text, encoding="utf-8")
    return path


@st.composite
def invocations(draw):
    """Program text, command, flags and the store file to pass, if any."""
    items = []
    for stmt in draw(st.lists(st.sampled_from(FUZZ_STATEMENTS),
                              min_size=1, max_size=4)):
        if items:
            items.append(draw(st.sampled_from([";", "par"])))
        items.append(stmt)
    free_text = st.text(st.characters(blacklist_categories=("Cs",)),
                        max_size=4)
    for item in draw(st.lists(st.one_of(st.sampled_from(FUZZ_WORDS),
                                        free_text), max_size=3)):
        items.insert(draw(st.integers(0, len(items))), item)
    command = draw(st.sampled_from(
        ["parse", "check", "run", "trace", "graph", "outcomes"]))
    budget = st.integers(-1, 40).map(str)
    args = []
    if command == "check" and draw(st.booleans()):
        args.append("--emit-derivation")
    if command in ("run", "trace"):
        args += ["--max-steps", draw(budget)]
        if draw(st.booleans()):
            args += ["--schedule", "random", "--seed", draw(budget)]
    if command in ("graph", "outcomes"):
        args += ["--max-states", draw(budget), "--max-depth", draw(budget)]
    store = None
    if command not in ("parse", "check"):
        store = draw(st.sampled_from([None, *FUZZ_STORES]))
        if draw(st.booleans()):
            args.append("--checked")
    return " ".join(items), command, args, store


class TestExitCodeContract:
    """Any program and flags end in a documented exit code, never in an
    exception, and an error exit prints exactly one line on stderr."""

    @settings(max_examples=500, deadline=None)
    @given(invocations())
    def test_random_invocations(self, fuzz_dir, invocation):
        text, command, args, store = invocation
        program = fuzz_dir / "prog.whl"
        program.write_text(text, encoding="utf-8")
        if store:
            args = [*args, "--initial-store", str(fuzz_dir / f"{store}.txt")]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, str(program), *args])
        assert code in range(6)
        if code in (1, 2, 5):
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")

    @pytest.mark.parametrize("command,stdout", [
        ("parse", "var Nat x := " + " + ".join(["1"] * 600) + "\n"),
        ("check", "ok: Cmd\n"),
        ("run", "void ({x=600})\n"),
    ], ids=["parse", "check", "run"])
    def test_600_term_sum(self, tmp_program, command, stdout):
        # The checker judges an operator's operands in one stack frame
        # per level, as the parser, printer and stepper walk them.
        r = whilelang(command, tmp_program(
            "var Nat x := " + " + ".join(["1"] * 600)))
        assert (r.returncode, r.stdout, r.stderr) == (0, stdout, "")


# Programs for the in-process runs below, by name; an argument "{name}"
# stands for the path of that program, "{absent}" for a missing file.
MAIN_PROGRAMS = {
    "block": "var Nat x := 1;"
             " begin var Nat y := 2; proc p is x := x + y; call p end",
    "par": "var Nat x := 0; { {x := x + 1} par {x := x + 2} }",
    "bad": "x := ",
    "ill": "var Nat x := true",
    "unbound": "x := 1",
    "loop": "var Nat x := 0; while true do x := x + 1",
    "deep": parenthesized_one(5000),
    "squaring": TestNumeralBound.SQUARING,
}

# Every command, and every exit path: (argv, exit code).
MAIN_CASES = {
    "parse": (["parse", "{block}"], 0),
    "check": (["check", "{block}"], 0),
    "check-derivation": (["check", "{block}", "--emit-derivation"], 0),
    "run": (["run", "{block}"], 0),
    "trace": (["trace", "{block}"], 0),
    "graph": (["graph", "{par}"], 0),
    "outcomes": (["outcomes", "{par}"], 0),
    "parse-error": (["check", "{bad}", "--emit-derivation"], 1),
    "type-error": (["check", "{ill}", "--emit-derivation"], 2),
    "checked-type-error": (["trace", "{ill}", "--checked"], 2),
    "stuck": (["trace", "{unbound}"], 3),
    "step-budget": (["run", "{loop}", "--max-steps", "50"], 4),
    "state-budget": (["outcomes", "{par}", "--max-states", "2"], 4),
    "recursion-limit": (["check", "{deep}"], 4),
    "numeral-overflow": (["run", "{squaring}", "--max-steps", "1000"], 4),
    "bad-flag": (["run", "{block}", "--max-steps", "0"], 5),
    "unknown-command": (["frob", "{block}"], 5),
    "unreadable-file": (["parse", "{absent}"], 5),
}


@pytest.fixture
def main_argv(tmp_path):
    """Fills the program paths into an argv of MAIN_CASES."""
    paths = {"absent": str(tmp_path / "absent.whl")}
    for name, text in MAIN_PROGRAMS.items():
        paths[name] = str(tmp_path / f"{name}.whl")
        Path(paths[name]).write_text(text, encoding="utf-8")
    return lambda argv: [arg.format_map(paths) for arg in argv]


@pytest.fixture
def collector():
    """Puts the collector back as it was before the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def quiet_main(argv):
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return cli.main(argv)


class TestCyclicCollector:
    """`main` runs each command with the collector off, because records
    never form a cycle: no command leaves cyclic garbage, so the collector
    would free nothing. It restores the caller's setting on every exit."""

    @pytest.mark.parametrize("argv,code", MAIN_CASES.values(),
                             ids=MAIN_CASES.keys())
    def test_no_cyclic_garbage(self, collector, main_argv, argv, code):
        argv = main_argv(argv)
        # The argument parser is built once per process, not per command.
        cli._build_parser()
        gc.disable()
        gc.collect()
        assert quiet_main(argv) == code
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv,code", MAIN_CASES.values(),
                             ids=MAIN_CASES.keys())
    def test_off_during_the_command_and_restored_after(
            self, collector, monkeypatch, main_argv, argv, code, enabled):
        seen, original = [], cli.parse_program

        def parse_program(text):
            seen.append(gc.isenabled())
            return original(text)

        monkeypatch.setattr(cli, "parse_program", parse_program)
        (gc.enable if enabled else gc.disable)()
        assert quiet_main(main_argv(argv)) == code
        assert gc.isenabled() is enabled
        # Usage errors end before the program is read.
        assert seen == ([] if code == 5 else [False])

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv", [["--help"], ["trace", "--help"]],
                             ids=["top", "trace"])
    def test_help_restores_the_callers_setting(self, collector, argv,
                                               enabled):
        (gc.enable if enabled else gc.disable)()
        out = StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 0
        assert out.getvalue().startswith("usage: whilelang")
        assert gc.isenabled() is enabled


class TestParserReuse:
    def test_in_process_calls_match_fresh_processes(self, main_argv):
        # Usage errors between valid commands, all through one parser.
        argvs = [main_argv(argv) for argv in [
            ["frob", "{block}"],
            ["parse", "{block}"],
            ["run", "{block}", "--max-steps", "0"],
            ["run", "{block}", "--max-steps", "7"],
            ["trace"],
            ["check", "{block}", "--emit-derivation"],
            ["graph", "{par}", "--max-depth", "x", "--max-states", "9"],
            ["graph", "{par}", "--max-states", "9"],
            ["outcomes", "{absent}"],
            ["outcomes", "{par}"],
            ["trace", "{block}", "--schedule", "fair"],
            ["trace", "{par}", "--schedule", "random", "--seed", "3"],
            ["check", "{block}", "--bogus"],
            ["check", "{block}"],
        ]]
        in_process = []
        for argv in argvs:
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            in_process.append((code, out.getvalue(), err.getvalue()))
        fresh = []
        for argv in argvs:
            r = subprocess.run(
                [sys.executable, "-m", "whilelang.cli", *argv],
                capture_output=True, text=True, encoding="utf-8",
                env=_child_env(PYTHONIOENCODING="utf-8"), cwd=ROOT)
            fresh.append((r.returncode, r.stdout, r.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [
            5, 0, 5, 4, 5, 0, 5, 4, 5, 0, 5, 0, 5, 0]


# Runs whilelang's CLI in process on each argument list; `cli_results`
# returns [exit code, stdout, stderr] for each.
_CLI_RESULTS = """
import json, sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from whilelang import cli

def cli_results(argvs):
    results = []
    for argv in argvs:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        results.append([code, out.getvalue(), err.getvalue()])
    return results
"""


def _python310():
    """A Python 3.10 interpreter that runs, or None: pyproject.toml asks
    for 3.10 or later."""
    candidates = [shutil.which("python3.10"), *sorted(glob.glob(
        os.path.expanduser("~/.pyenv/versions/3.10*/bin/python3")))]
    for exe in candidates:
        if exe and subprocess.run(
                [exe, "-c", "import sys; assert sys.version_info[:2] == (3, 10)"],
                capture_output=True).returncode == 0:
            return exe
    return None


class TestOldestPython:
    def test_frontend_under_python_310(self, tmp_program, store_file):
        exe = _python310()
        if exe is None:
            pytest.skip("no Python 3.10 interpreter found")
        corpus = [str(p) for p in sorted((ROOT / "programs").glob("**/*.whl"))]
        # Operator aliases, a file that ends in a comment, a parse error
        # after blanks, a syntax error after a comment, and a type error.
        paths = corpus + [
            tmp_program("var Nat x := 2 − 1;\nvar Bool b := ¬ (x ≤ 1) ∧ true",
                        "aliases.whl"),
            tmp_program("var Nat x := 1;\n  x := x + 1 // done",
                        "end-comment.whl"),
            tmp_program("x := 1 \x0b\t$", "bad-char.whl"),
            tmp_program("// first\r\nvar Nat x := 1;\r\n  x := x + // c\n",
                        "comment-then-error.whl"),
            tmp_program("var Nat x := 1;\r\n  x := true", "bad-type.whl")]
        # Two usage errors first, so that every later call reuses the
        # argument parser after an error.
        argvs = [["frob", corpus[0]], ["run", corpus[0], "--max-steps", "0"]]
        argvs += [argv for path in paths for argv in (
            ["parse", path], ["check", path, "--emit-derivation"])]
        # The run path: the trace and the outcomes of each corpus program,
        # and a run from a store file of two frames.
        argvs += [[command, path] for path in corpus
                  for command in ("trace", "outcomes")]
        argvs.append(["run", tmp_program(TWO_FRAME_PROGRAM),
                      "--initial-store", store_file(TWO_FRAME_STORE)])
        namespace = {}
        exec(_CLI_RESULTS, namespace)
        expected = namespace["cli_results"](argvs)
        r = subprocess.run(
            [exe, "-c", _CLI_RESULTS
             + "print(json.dumps(cli_results(json.loads(sys.argv[1]))))",
             json.dumps(argvs)],
            capture_output=True, text=True, encoding="utf-8",
            env=_child_env(PYTHONIOENCODING="utf-8"), cwd=ROOT)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == expected
        # The two usage errors, parse and check of the three bad files (five
        # failures), and the traces of the two counterexamples, which end
        # stuck.
        assert [code for code, _, _ in expected].count(0) == len(argvs) - 9
