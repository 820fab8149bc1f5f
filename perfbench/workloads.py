"""Seeded inputs and independent references for the three workloads.

Nothing here imports whilelang: every expected output is derived from the
generator's own knowledge (a closed form, a small interleaving model, the
verdict a mutation forces) or from sha256 digests recorded once at the
seed commit (`reference.json`). A job is one `whilelang` command line.

The seed varies what does not change the amount of work, so that runs with
different seeds can be compared: variable names, a constant that scales
every literal of a par family (which maps states one to one), the
random-schedule seeds, and which programs of the fixed frontend pool are
drawn and how they are mutated. Job order is fixed, so that the garbage
one job leaves does not land on different jobs under different seeds.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from pathlib import Path

MAX_STATES = 1_000_000
MAX_STEPS = 1_000_000

WORKLOADS = {
    "explore": "outcomes on shared-variable, separate-variable and protect "
               "par families: explorer BFS, dedup and successors do the work",
    "export": "run/trace on four loops and graph on mid-size par programs: "
              "semantics without dedup, plus to_json_trace, to_dot, pretty "
              "and render_store",
    "frontend": "parse and check --emit-derivation on generated block-"
                "structured programs plus ill-typed mutants: parser and "
                "typesys only",
}


@dataclass
class Job:
    """One `whilelang` invocation and what its result must be.

    `argv` names files relative to the work directory; `{out}` is replaced
    by the job's output path. `expect_out` is the exact --out text,
    `expect_digest` a key into reference.json, `expect_one_of` a set of
    allowed --out texts, `expect_stderr` a required stderr prefix, and
    `expect_chain` the node count and final store of a DOT chain.
    """
    id: str
    kind: str
    argv: list[str]
    exit_code: int = 0
    expect_out: str | None = None
    expect_digest: str | None = None
    expect_one_of: frozenset[str] | None = None
    expect_stderr: str | None = None
    expect_chain: tuple[int, str] | None = None
    source_bytes: int = 0


@dataclass
class Inputs:
    jobs: list[Job]
    probes: list[Job]
    files: dict[str, str] = field(default_factory=dict)
    memory_job: str | None = None


# ---------------------------------------------------------------------------
# Names

def fresh_names(rng: random.Random, count: int) -> list[str]:
    """Distinct identifiers `q` + three letters; no whilelang keyword or
    artifact word starts with `q`."""
    names: list[str] = []
    while len(names) < count:
        name = "q" + "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if name not in names:
            names.append(name)
    return names


# ---------------------------------------------------------------------------
# Par families, in the braced form `var Nat x := 0; { {T1} par ... par {Tk} }`.
#
# `;` binds tighter than `par`, so the unbraced `var Nat x := 0; T1 par T2`
# parses as `(var Nat x := 0; T1) par T2`: the checker rejects it (T2 uses
# an unbound x) and it runs only because a failed contraction blocks until
# the declaration has happened. Both forms reach the same state counts
# (16,556 for (2,6), 43,657 for (3,3)), so the braced form keeps ROADMAP's
# baseline numbers comparable and is well-typed.

def _updates(var: str, n: int, c: int) -> str:
    return "; ".join(f"{var} := {var} + {c * j}" for j in range(1, n + 1))


def shared_program(x: str, k: int, n: int, c: int) -> str:
    thread = "{ " + _updates(x, n, c) + " }"
    return f"var Nat {x} := 0; {{ " + " par ".join([thread] * k) + " }"


def separate_program(xs: list[str], n: int, c: int) -> str:
    decls = "".join(f"var Nat {x} := 0; " for x in xs)
    threads = ["{ " + _updates(x, n, c) + " }" for x in xs]
    return decls + "{ " + " par ".join(threads) + " }"


def protect_program(x: str, k: int, n: int, c: int) -> str:
    thread = "{ protect " + _updates(x, n, c) + " end }"
    return f"var Nat {x} := 0; {{ " + " par ".join([thread] * k) + " }"


def shared_finals(k: int, n: int, c: int) -> frozenset[int]:
    """Final values of x for k threads each doing `x := x + c*j`, j = 1..n.

    Independent model: an update is a read of x into the thread's register,
    then a write of register + c*j; any thread may move at any time."""
    start = ((0,) * k, (None,) * k, 0)
    seen = {start}
    todo = [start]
    finals: set[int] = set()
    while todo:
        pcs, regs, x = todo.pop()
        moved = False
        for i in range(k):
            if pcs[i] == n:
                continue
            moved = True
            if regs[i] is None:
                nxt = (pcs, regs[:i] + (x,) + regs[i + 1:], x)
            else:
                write = regs[i] + c * (pcs[i] + 1)
                nxt = (pcs[:i] + (pcs[i] + 1,) + pcs[i + 1:],
                       regs[:i] + (None,) + regs[i + 1:], write)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
        if not moved:
            finals.add(x)
    return frozenset(finals)


def _store(bindings: list[tuple[str, int]]) -> str:
    return "({" + ", ".join(f"{k}={v}" for k, v in bindings) + "})"


def outcomes_text(stores: list[str]) -> str:
    """`whilelang outcomes` output for terminal stores, all of value void."""
    lines = [f"terminal: void {s}" for s in sorted(stores)]
    return "\n".join(lines + ["complete: true"]) + "\n"


def _tri(n: int) -> int:
    return n * (n + 1) // 2


# ---------------------------------------------------------------------------
# explore

# (family, k, n, copies). The shared set is ROADMAP's scaling family minus
# (4,2), whose 60,487 states would double a pass, and (2,6), which export
# graphs. (3,3) stays, above 40k states, so working-set growth is measured.
# Separate (2,20) stands for the long-thread instances whose larger terms
# cost more per dedup hash. The many small copies put the median job and
# the tail percentile inside groups of equal cost, so those two figures do
# not jump between seeds.
EXPLORE_SET = [
    ("shared", 3, 3, 1),
    ("separate", 2, 20, 1),
    ("separate", 3, 4, 1),
    ("shared", 3, 2, 4),
    ("shared", 2, 3, 10),
    ("protect", 3, 4, 6),
    ("protect", 4, 3, 6),
]


def explore_inputs(seed: int) -> Inputs:
    rng = random.Random(f"explore:{seed}")
    jobs: list[Job] = []
    files: dict[str, str] = {}
    memory_job = None
    for family, k, n, copies in EXPLORE_SET:
        for copy in range(copies):
            c = rng.randint(1, 9)
            names = fresh_names(rng, k)
            if family == "shared":
                src = shared_program(names[0], k, n, c)
                stores = [_store([(names[0], v)]) for v in shared_finals(k, n, c)]
            elif family == "separate":
                src = separate_program(names, n, c)
                stores = [_store([(x, c * _tri(n)) for x in names])]
            else:
                src = protect_program(names[0], k, n, c)
                stores = [_store([(names[0], k * c * _tri(n))])]
            name = f"{family}-{k}-{n}-{copy}"
            files[name + ".whl"] = src
            jobs.append(Job(name, "outcomes",
                            ["outcomes", name + ".whl", "--out", "{out}",
                             "--max-states", str(MAX_STATES)],
                            expect_out=outcomes_text(stores),
                            source_bytes=len(src.encode())))
            if (family, k, n, copy) == ("shared", 3, 2, 0):
                memory_job = name
    probes = _probes(rng, files)
    return Inputs(jobs, probes, files, memory_job)


# ---------------------------------------------------------------------------
# export

LOOP_2000 = ("var Nat x := 0; var Nat s := 0; "
             "while x <= 2000 do { s := s + x; x := x + 1 }")
LOOP_NESTED = ("var Nat i := 0; var Nat j := 0; var Nat acc := 0; "
               "while i <= 20 do { j := 0; "
               "while j <= 20 do { acc := acc + i * j; j := j + 1 }; "
               "i := i + 1 }")
LOOP_PROCS = ("var Nat i := 0; var Nat s := 0; "
              "begin proc add is s := s + i; proc step is i := i + 1; "
              "while i <= 300 do { call add; call step } end")
LOOP_BLOCK = ("var Nat i := 0; var Nat s := 0; "
              "while i <= 400 do begin var Nat t := i * 2; "
              "s := s + t; i := i + 1 end")

# name -> (source, final store). The loop programs are fixed so that their
# JSON-lines traces can be checked byte for byte against reference.json.
LOOPS = {
    "loop2000": (LOOP_2000, _store([("x", 2001), ("s", _tri(2000))])),
    "nested": (LOOP_NESTED, _store([("i", 21), ("j", 21),
                                    ("acc", _tri(20) * _tri(20))])),
    "procs": (LOOP_PROCS, _store([("i", 301), ("s", _tri(300))])),
    "block": (LOOP_BLOCK, _store([("i", 401), ("s", 2 * _tri(400))])),
}

# (family, k, n) for graph jobs; fixed programs (name x, scale 1) so the DOT
# output can be checked byte for byte.
GRAPH_SET = [("shared", 2, 6), ("shared", 3, 2), ("separate", 3, 3),
             ("protect", 3, 4)]

RANDOM_RUNS = 18
# Three equal `run` jobs on the procedure loop: the tail percentile (the
# 11th slowest job) falls among them rather than between unequal jobs.
RUN_COPIES = {"procs": 3}


def _fixed_par(family: str, k: int, n: int) -> str:
    if family == "shared":
        return shared_program("x", k, n, 1)
    if family == "separate":
        return separate_program([f"x{i}" for i in range(1, k + 1)], n, 1)
    return protect_program("x", k, n, 1)


def export_inputs(seed: int) -> Inputs:
    rng = random.Random(f"export:{seed}")
    jobs: list[Job] = []
    files: dict[str, str] = {}
    for name, (src, store) in LOOPS.items():
        files[name + ".whl"] = src
        size = len(src.encode())
        for copy in range(RUN_COPIES.get(name, 1)):
            jobs.append(Job(f"run-{name}-{copy}", "run",
                            ["run", name + ".whl", "--out", "{out}",
                             "--max-steps", str(MAX_STEPS)],
                            expect_out=f"void {store}\n", source_bytes=size))
        jobs.append(Job(f"trace-{name}", "trace",
                        ["trace", name + ".whl", "--out", "{out}",
                         "--max-steps", str(MAX_STEPS)],
                        expect_digest=f"trace-{name}", source_bytes=size))
    for family, k, n in GRAPH_SET:
        name = f"{family}-{k}-{n}"
        src = _fixed_par(family, k, n)
        files[name + ".whl"] = src
        jobs.append(Job(f"graph-{name}", "graph",
                        ["graph", name + ".whl", "--out", "{out}",
                         "--max-states", str(MAX_STATES)],
                        expect_digest=f"graph-{name}",
                        source_bytes=len(src.encode())))
    memory_job = "graph-shared-2-6"
    # Random-schedule runs on shared (3,3): every schedule takes the same
    # number of steps, and its final value must be one the model allows.
    x = fresh_names(rng, 1)[0]
    c = rng.randint(1, 9)
    src = shared_program(x, 3, 3, c)
    files["random.whl"] = src
    allowed = frozenset(f"void {_store([(x, v)])}\n"
                        for v in shared_finals(3, 3, c))
    for i in range(RANDOM_RUNS):
        jobs.append(Job(f"random-{i}", "run",
                        ["run", "random.whl", "--out", "{out}",
                         "--schedule", "random",
                         "--seed", str(rng.randrange(2 ** 31))],
                        expect_one_of=allowed,
                        source_bytes=len(src.encode())))
    probes = _probes(rng, files)
    return Inputs(jobs, probes, files, memory_job)


# ---------------------------------------------------------------------------
# frontend

FRONTEND_POOL = 48
FRONTEND_DRAW = 24
FRONTEND_TARGET_BYTES = 5000

MUTATIONS = {
    # kind -> the rule the checker must report
    "unbound-update": "T-Update",
    "bool-to-nat": "T-Update",
    "nat-condition": "T-If",
    "unbound-call": "T-Call",
}


class _ProgramGen:
    """Well-typed programs of nested begin blocks with local var and proc
    declarations, if, while and arithmetic up to depth 3.

    Well-typedness holds by construction: names are used only where
    declared, Nat and Bool are never mixed, and loop bodies declare nothing
    outside nested blocks. With `mutate=(kind, index)` the index-th site of
    that kind is emitted ill-typed; the random stream is consumed exactly as
    without it and sizes are counted as unmutated, so the mutant differs
    from the program in that site only.
    """

    def __init__(self, rng: random.Random, mutate: tuple[str, int] | None = None):
        self.rng = rng
        self.mutate = mutate
        self.sites = {kind: 0 for kind in MUTATIONS}
        self.var_count = 0
        self.proc_count = 0
        self.shrink = 0  # bytes the mutation removed

    def _site(self, kind: str, text: str, mutated: str) -> str:
        hit = self.mutate == (kind, self.sites[kind])
        self.sites[kind] += 1
        if not hit:
            return text
        self.shrink += len(text) - len(mutated)
        return mutated

    def _var(self) -> str:
        self.var_count += 1
        return f"v{self.var_count}"

    def _proc(self) -> str:
        self.proc_count += 1
        return f"p{self.proc_count}"

    def aexp(self, nats: list[str], depth: int) -> str:
        r = self.rng
        if depth == 0 or r.random() < 0.3:
            return r.choice(nats) if r.random() < 0.6 else str(r.randint(0, 9))
        op = r.choice(("+", "-", "*"))
        left, right = self.aexp(nats, depth - 1), self.aexp(nats, depth - 1)
        return f"({left} {op} {right})"

    def bexp(self, nats: list[str], bools: list[str], depth: int) -> str:
        r = self.rng
        roll = r.random()
        if depth == 0 or roll < 0.3:
            if bools and r.random() < 0.5:
                return r.choice(bools)
            return f"{self.aexp(nats, 1)} <= {self.aexp(nats, 1)}"
        if roll < 0.6:
            return f"{self.aexp(nats, 2)} = {self.aexp(nats, 1)}"
        if roll < 0.8:
            return f"not ({self.bexp(nats, bools, depth - 1)})"
        return (f"({self.bexp(nats, bools, depth - 1)}) and "
                f"({self.bexp(nats, bools, depth - 1)})")

    def update(self, nats: list[str], bools: list[str]) -> str:
        r = self.rng
        if bools and r.random() < 0.25:
            target = r.choice(bools)
            return f"{target} := {self.bexp(nats, bools, 2)}"
        target = r.choice(nats)
        text = f"{target} := {self.aexp(nats, 3)}"
        text = self._site("unbound-update", text, "zzz" + text[len(target):])
        return self._site("bool-to-nat", text, f"{target} := true")

    def call(self, procs: list[str]) -> str:
        name = self.rng.choice(procs)
        return self._site("unbound-call", f"call {name}", "call zzz")

    def simple(self, nats, bools, procs, depth) -> str:
        r = self.rng
        roll = r.random()
        if procs and roll < 0.15:
            return self.call(procs)
        if roll < 0.55 or depth == 0:
            return self.update(nats, bools)
        if roll < 0.75:
            cond = self.bexp(nats, bools, 2)
            then = self.braced(nats, bools, procs, depth - 1)
            other = self.braced(nats, bools, procs, depth - 1)
            cond = self._site("nat-condition", cond, r.choice(nats))
            return f"if {cond} then {then} else {other}"
        if roll < 0.9:
            cond = self.bexp(nats, bools, 2)
            return f"while {cond} do {self.braced(nats, bools, procs, depth - 1)}"
        return self.block(nats, bools, procs, depth - 1)

    def braced(self, nats, bools, procs, depth) -> str:
        count = self.rng.randint(1, 3)
        return "{ " + "; ".join(self.simple(nats, bools, procs, depth)
                                for _ in range(count)) + " }"

    def block(self, nats, bools, procs, depth) -> str:
        r = self.rng
        nats, bools, procs = list(nats), list(bools), list(procs)
        items = []
        for _ in range(r.randint(1, 3)):
            name = self._var()
            if r.random() < 0.7:
                items.append(f"var Nat {name} := {self.aexp(nats, 2)}")
                nats.append(name)
            else:
                items.append(f"var Bool {name} := {self.bexp(nats, bools, 1)}")
                bools.append(name)
        for _ in range(r.randint(0, 2)):
            name = self._proc()
            items.append(f"proc {name} is "
                         f"{self.braced(nats, bools, procs, 0)}")
            procs.append(name)
        body = "; ".join(self.simple(nats, bools, procs, depth)
                         for _ in range(r.randint(2, 4)))
        return "begin " + ";\n  ".join(items) + ";\n  " + body + "\nend"

    def program(self, target_bytes: int) -> str:
        nats = [self._var() for _ in range(3)]
        bools = [self._var()]
        parts = [f"var Nat {v} := {self.rng.randint(0, 9)}" for v in nats]
        parts.append(f"var Bool {bools[0]} := true")
        size = sum(len(p) + 2 for p in parts)
        while size < target_bytes:
            # A block that would overshoot the target by much is drawn
            # again, with the site and name counters rewound, so that pool
            # programs differ little in size and so in cost.
            saved = dict(self.sites), self.var_count, self.proc_count, self.shrink
            for attempt in range(50):
                block = self.block(nats, bools, [], 2)
                length = len(block) + self.shrink - saved[3]
                if size + length <= target_bytes + 400 or attempt == 49:
                    break
                self.sites, self.var_count, self.proc_count, self.shrink = \
                    dict(saved[0]), saved[1], saved[2], saved[3]
            parts.append(block)
            size += length + 2
        return ";\n".join(parts) + "\n"


def frontend_program(index: int,
                     mutate: tuple[str, int] | None = None) -> tuple[str, dict]:
    """Pool program `index` (or a mutant of it) and its mutation-site counts."""
    gen = _ProgramGen(random.Random(f"frontend-pool:{index}"), mutate)
    return gen.program(FRONTEND_TARGET_BYTES), gen.sites


def frontend_inputs(seed: int) -> Inputs:
    rng = random.Random(f"frontend:{seed}")
    jobs: list[Job] = []
    files: dict[str, str] = {}
    for index in rng.sample(range(FRONTEND_POOL), FRONTEND_DRAW):
        src, sites = frontend_program(index)
        name = f"pool-{index}"
        files[name + ".whl"] = src
        size = len(src.encode())
        jobs.append(Job(f"parse-{index}", "parse",
                        ["parse", name + ".whl", "--out", "{out}"],
                        expect_digest=f"parse-{index}", source_bytes=size))
        jobs.append(Job(f"derive-{index}", "check",
                        ["check", name + ".whl", "--emit-derivation",
                         "--out", "{out}"],
                        expect_digest=f"derive-{index}", source_bytes=size))
        kinds = [kind for kind in MUTATIONS if sites[kind]]
        kind = rng.choice(kinds)
        site = rng.randrange(sites[kind])
        mutant, _ = frontend_program(index, (kind, site))
        mname = f"mutant-{index}"
        files[mname + ".whl"] = mutant
        jobs.append(Job(mname, "check",
                        ["check", mname + ".whl", "--out", "{out}"],
                        exit_code=2,
                        expect_stderr=f"error[{MUTATIONS[kind]}]",
                        source_bytes=len(mutant.encode())))
    probes = _probes(rng, files)
    return Inputs(jobs, probes, files, None)


# ---------------------------------------------------------------------------
# Robustness probes: long straight lines that hit the recursion limit at the
# seed commit. They count in ok_ratio and in no timing.

GRAPH_PROBE_LEN = 600
PARSE_PROBE_LEN = 1000


def straight_line(x: str, n: int) -> str:
    return f"var Nat {x} := 0; " + _updates(x, n, 1)


def _probes(rng: random.Random, files: dict[str, str]) -> list[Job]:
    x = fresh_names(rng, 1)[0]
    graph_src = straight_line(x, GRAPH_PROBE_LEN)
    parse_src = straight_line(x, PARSE_PROBE_LEN)
    files["probe-graph.whl"] = graph_src
    files["probe-parse.whl"] = parse_src
    # A declaration is one step, each `x := x + j` three (Expr-Var,
    # Expr-Add, Update): the graph is a chain of 3n + 2 nodes ending in the
    # store x = n(n+1)/2.
    final = _store([(x, _tri(GRAPH_PROBE_LEN))])
    return [
        Job("probe-graph", "graph",
            ["graph", "probe-graph.whl", "--out", "{out}",
             "--max-states", str(MAX_STATES)],
            expect_chain=(3 * GRAPH_PROBE_LEN + 2, final)),
        Job("probe-parse", "parse",
            ["parse", "probe-parse.whl", "--out", "{out}"],
            expect_out=parse_src + "\n"),
    ]


BUILDERS = {
    "explore": explore_inputs,
    "export": export_inputs,
    "frontend": frontend_inputs,
}


def _interleave(jobs: list[Job]) -> list[Job]:
    """Spread the copies of each kind of job evenly over the pass.

    Copies of one kind then run at moments seconds apart, so a stretch in
    which the machine is slow or fast does not meet all of them."""
    groups: dict[str, list[Job]] = {}
    for job in jobs:
        stem, _, last = job.id.rpartition("-")
        groups.setdefault(stem if last.isdigit() else job.id, []).append(job)
    placed = [((i + 0.5) / len(group), order, job)
              for order, group in enumerate(groups.values())
              for i, job in enumerate(group)]
    return [job for _, _, job in sorted(placed, key=lambda p: p[:2])]


def build(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's inputs for `seed` and write its program files."""
    inputs = BUILDERS[workload](seed)
    inputs.jobs = _interleave(inputs.jobs)
    for name, text in inputs.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return inputs
