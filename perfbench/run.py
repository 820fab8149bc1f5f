#!/usr/bin/env python3
"""whilelang benchmark.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from --seed, then runs passes over its jobs
for about --seconds, each job one `whilelang.cli.main([...])` call with an
--out file, all in this one process and thread, and checks every output
against a reference that does not come from the code under test. Two
robustness probes per pass count in `ok_ratio` and in no timing.

--trace 0 reports the end-to-end metrics; job times count in units of a
calibration loop run around each job (see `calibrate`). --trace 1
alternates untraced passes with passes in which spans are recorded around
whilelang's module boundaries (spans.py), then measures tracemalloc bytes
per explored state on one job, and reports the per-layer metrics. The last stdout line is one
JSON object; a fuller result with the run's provenance is written to
perfbench/_results/. `--record` writes reference.json, `--self-check`
checks the harness itself (selfcheck.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "_results"
WORK = HERE / "_work"

SETUP_REPEATS = 5
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s", "wall_cal": "cal", "job_p50_cal": "cal",
    "job_tail_cal": "cal", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


class HarnessError(Exception):
    """The benchmark cannot run here (no whilelang source, bad reference)."""


# ---------------------------------------------------------------------------
# Set-up

def import_cli():
    """Import whilelang afresh from this checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "whilelang" or m.startswith("whilelang.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import whilelang.cli as cli
    except ImportError as err:
        raise HarnessError(f"cannot import whilelang from {SRC}: {err}") from None
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise HarnessError(f"whilelang imported from {cli.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs; several times, timed."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_cli()
        inputs = workloads.build(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return cli, inputs, times


def load_digests() -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]
    except (OSError, ValueError, KeyError) as err:
        raise HarnessError(f"cannot read {REFERENCE}: {err}") from None


# ---------------------------------------------------------------------------
# Jobs

def out_path(workdir: Path, job: Job) -> Path:
    return workdir / f"{job.id}.out"


def argv_for(workdir: Path, job: Job) -> list[str]:
    out = str(out_path(workdir, job))
    return [out if a == "{out}" else
            str(workdir / a) if a.endswith(".whl") else a for a in job.argv]


def run_job(cli, argv: list[str]):
    """One cli.main call: (seconds, exit code or None, exception, stderr).

    Garbage is collected first, untimed, so each call starts like a fresh
    `whilelang` process and pays for no earlier job's garbage."""
    err = io.StringIO()
    code, failure = None, None
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # any raise is a failed job
        failure = exc
    return time.perf_counter() - start, code, failure, err.getvalue()


def _dot_chain_ok(text: str, nodes: int, final_store: str) -> bool:
    lines = text.splitlines()
    node_lines = [l for l in lines if l.startswith("  n") and "->" not in l]
    edge_lines = [l for l in lines if "->" in l]
    return (len(node_lines) == nodes and len(edge_lines) == nodes - 1
            and node_lines[-1].endswith(f'\\n{final_store}"];'))


def check_job(job: Job, code, failure, stderr: str, out: Path,
              digests: dict) -> str | None:
    """None when the job's result matches its reference, else why not."""
    if failure is not None:
        return f"raised {type(failure).__name__}"
    if code != job.exit_code:
        return f"exit {code}, expected {job.exit_code}"
    if job.expect_stderr and not stderr.startswith(job.expect_stderr):
        return f"stderr {stderr[:80]!r}"
    if job.exit_code != 0:
        return None
    try:
        data = out.read_bytes()
    except OSError:
        return "no output file"
    text = data.decode("utf-8")
    if job.expect_out is not None and text != job.expect_out:
        return "output differs from reference"
    if job.expect_one_of is not None and text not in job.expect_one_of:
        return "output not among the allowed outcomes"
    if job.expect_digest is not None and \
            hashlib.sha256(data).hexdigest() != digests.get(job.expect_digest):
        return f"sha256 differs from reference {job.expect_digest}"
    if job.expect_chain is not None and not _dot_chain_ok(text, *job.expect_chain):
        return "graph is not the expected chain"
    return None


@dataclass(frozen=True)
class _Cell:
    key: int
    rest: tuple


def calibrate() -> float:
    """Least of three timings of a fixed piece of pure-Python work shaped
    like whilelang's inner loop: frozen dataclasses built, hashed into a
    dict and rendered to strings.

    On a shared machine the same work runs up to 1.7x slower in stretches
    of seconds to minutes (this loop measured 2.5-3.8 ms within a second,
    and a longer one 0.038-0.072 s over half an hour), so seconds measured
    in one run do not compare with another's. A job's time divided by the
    calibration measured around it does: the loop shares no code with
    whilelang, so no change to whilelang moves it, while a slow stretch
    slows both."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        index = {}
        for i in range(2000):
            cell = _Cell(i % 97, (i % 13, "q"))
            index[cell] = f"{cell.key}={cell.rest[0]}"
        best = min(best, time.perf_counter() - start)
    return best


class Pass:
    """Timings, checks and sizes of one pass over the jobs. `cal` holds each
    job's time in units of the calibration measured around it."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.cal: dict[str, float] = {}
        self.failures: dict[str, str] = {}
        self.out_bytes: dict[str, int] = {}
        self.probe_failures: dict[str, str] = {}


def run_pass(cli, inputs, workdir: Path, digests: dict) -> Pass:
    p = Pass()
    results = []
    before = calibrate()
    for job in inputs.jobs:
        result = run_job(cli, argv_for(workdir, job))
        after = calibrate()
        results.append((result, (before + after) / 2))
        before = after
    for job, ((seconds, code, failure, stderr), cal) in zip(inputs.jobs, results):
        out = out_path(workdir, job)
        p.times[job.id] = seconds
        p.cal[job.id] = seconds / cal
        why = check_job(job, code, failure, stderr, out, digests)
        if why:
            p.failures[job.id] = why
        if out.exists():
            p.out_bytes[job.id] = out.stat().st_size
            out.unlink()
    return p


def run_probes(cli, inputs, workdir: Path, p: Pass) -> None:
    """Run the robustness probes after a pass, outside its timing and spans."""
    for job in inputs.probes:
        _, code, failure, stderr = run_job(cli, argv_for(workdir, job))
        out = out_path(workdir, job)
        why = check_job(job, code, failure, stderr, out, {})
        if why:
            p.probe_failures[job.id] = why
        out.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Metrics

def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least 10 of `jobs` beyond it."""
    return math.floor(100 * (jobs - 10) / jobs)


def nearest_rank(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def job_medians(passes: list[Pass], field: str = "times") -> dict[str, float]:
    """Each job's median time (`times`) or calibrated time (`cal`) over the
    passes."""
    return {job: statistics.median(getattr(p, field)[job] for p in passes)
            for job in passes[0].times}


def ok_ratio(passes: list[Pass], probes: int) -> float:
    """Share of job runs, probes included, that matched their reference."""
    runs = sum(len(p.times) + probes for p in passes)
    failed = sum(len(p.failures) + len(p.probe_failures) for p in passes)
    return (runs - failed) / runs


def _job_stats(best: dict[str, float], unit: str) -> dict:
    """One pass at each job's median, the median job and the tail job."""
    q = tail_percentile(len(best))
    return {f"wall_{unit}": sum(best.values()),
            f"job_p50_{unit}": statistics.median(best.values()),
            f"job_tail_{unit}": nearest_rank(list(best.values()), q)}


def end_to_end(passes: list[Pass], setup_times: list[float], inputs) -> tuple:
    metrics = {
        "setup_s": statistics.median(setup_times),
        **_job_stats(job_medians(passes, "cal"), "cal"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": ok_ratio(passes, len(inputs.probes)),
    }
    return metrics, {"tail_percentile": tail_percentile(len(inputs.jobs)),
                     "seconds": _job_stats(job_medians(passes), "s")}


RATE_KINDS = {
    # rate -> (job kinds whose untraced time is the denominator, unit)
    "states_per_s": (("outcomes", "graph"), "1/s"),
    "steps_per_s": (("run", "trace"), "1/s"),
    "src_kb_per_s": (("parse", "check", "derive"), "KB/s"),
    "out_mb_per_s": (("graph", "trace", "derive"), "MB/s"),
}

PER_LAYER = {
    "cli.self_s": "s",
    "parser.tokenize_s": "s", "parser.parse_s": "s", "parser.tokens": "count",
    "parser.tokens_per_s": "1/s",
    "typesys.check_s": "s", "typesys.judgments": "count",
    "typesys.render_s": "s", "typesys.derivation_bytes": "bytes",
    "syntax.decompose_calls": "count", "syntax.decompose_s": "s",
    "syntax.redexes_per_call": "ratio", "syntax.pretty_calls": "count",
    "syntax.pretty_s": "s",
    "semantics.successors_calls": "count", "semantics.successors_s": "s",
    "semantics.contract_s": "s", "semantics.self_s": "s",
    "semantics.useful_ratio": "ratio",
    "env.lookups": "count", "env.updates": "count", "env.declares": "count",
    "env.scope_ops": "count", "env.s": "s", "env.render_calls": "count",
    "env.render_s": "s",
    "explorer.explore_s": "s", "explorer.self_s": "s",
    "explorer.states": "count", "explorer.edges": "count",
    "explorer.dedup_hits": "count", "explorer.dedup_hit_ratio": "ratio",
    "explorer.max_depth": "count", "explorer.bytes_per_state": "bytes",
    "explorer.steps": "count",
    "explorer.run_s": "s", "explorer.run_self_s": "s",
    "explorer.outcomes_s": "s", "explorer.to_dot_s": "s",
    "explorer.to_json_trace_s": "s",
    "trace_overhead": "ratio",
    **{rate: unit for rate, (_, unit) in RATE_KINDS.items()},
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    def get(key, field):
        return summary.get(key, {}).get(field, 0)

    under = summary["_under"]
    env_keys = ("env.lookup", "env.update", "env.declare", "env.scope")
    tokens = get("parser.tokenize", "items")
    successor_results = get("semantics.successors", "items")
    explores = get("explorer.explore", "calls")
    dedup_hits = counts["edges"] - counts["states"] + explores
    return {
        "cli.self_s": get("cli.main", "self_s"),
        "parser.tokenize_s": get("parser.tokenize", "total_s"),
        "parser.parse_s": get("parser.parse_program", "self_s"),
        "parser.tokens": tokens,
        "parser.tokens_per_s": _ratio(tokens, get("parser.tokenize", "total_s")),
        "typesys.check_s": get("typesys.check", "total_s"),
        "typesys.judgments": counts["judgments"],
        "typesys.render_s": get("typesys.render", "total_s"),
        "typesys.derivation_bytes": counts["derivation_bytes"],
        "syntax.decompose_calls": get("syntax.decompose", "calls"),
        "syntax.decompose_s": get("syntax.decompose", "total_s"),
        "syntax.redexes_per_call": _ratio(get("syntax.decompose", "items"),
                                          get("syntax.decompose", "calls")),
        "syntax.pretty_calls": get("syntax.pretty", "calls"),
        "syntax.pretty_s": get("syntax.pretty", "total_s"),
        "semantics.successors_calls": get("semantics.successors", "calls"),
        "semantics.successors_s": get("semantics.successors", "total_s"),
        "semantics.contract_s": get("semantics.contract", "total_s"),
        "semantics.self_s": get("semantics.successors", "self_s"),
        "semantics.useful_ratio": _ratio(
            successor_results,
            under.get(("semantics.successors", "syntax.decompose"), 0)),
        "env.lookups": get("env.lookup", "calls"),
        "env.updates": get("env.update", "calls"),
        "env.declares": get("env.declare", "calls"),
        "env.scope_ops": get("env.scope", "calls"),
        "env.s": sum(get(k, "total_s") for k in env_keys),
        "env.render_calls": get("env.render", "calls"),
        "env.render_s": get("env.render", "total_s"),
        "explorer.explore_s": get("explorer.explore", "total_s"),
        "explorer.self_s": get("explorer.explore", "self_s"),
        "explorer.states": counts["states"],
        "explorer.edges": counts["edges"],
        "explorer.dedup_hits": dedup_hits,
        "explorer.dedup_hit_ratio": _ratio(
            dedup_hits,
            under.get(("explorer.explore", "semantics.successors"), 0)),
        "explorer.max_depth": counts["max_depth"],
        "explorer.steps": counts["steps"],
        "explorer.run_s": get("explorer.run", "total_s"),
        "explorer.run_self_s": get("explorer.run", "self_s"),
        "explorer.outcomes_s": get("explorer.outcomes", "total_s"),
        "explorer.to_dot_s": get("explorer.to_dot", "total_s"),
        "explorer.to_json_trace_s": get("explorer.to_json_trace", "total_s"),
    }


def _job_group(job: Job) -> str:
    return "derive" if "--emit-derivation" in job.argv else job.kind


def rates(inputs, untraced: list[Pass], layers: dict) -> dict:
    """Work per second of untraced time, work counted in the traced pass."""
    best = job_medians(untraced)

    def seconds(kinds):
        return sum(best[j.id] for j in inputs.jobs if _job_group(j) in kinds)

    def out_mb(kinds):
        return sum(untraced[0].out_bytes.get(j.id, 0) for j in inputs.jobs
                   if _job_group(j) in kinds) / 1e6

    src_kb = sum(j.source_bytes for j in inputs.jobs
                 if _job_group(j) in RATE_KINDS["src_kb_per_s"][0]) / 1e3
    work = {
        "states_per_s": layers["explorer.states"],
        "steps_per_s": layers["explorer.steps"],
        "src_kb_per_s": src_kb,
        "out_mb_per_s": out_mb(RATE_KINDS["out_mb_per_s"][0]),
    }
    return {rate: _ratio(work[rate], seconds(kinds))
            for rate, (kinds, _) in RATE_KINDS.items()}


def bytes_per_state(cli, inputs, workdir: Path) -> float:
    """tracemalloc peak during explore / states, on the workload's memory job."""
    import tracemalloc
    job = next((j for j in inputs.jobs if j.id == inputs.memory_job), None)
    if job is None:
        return 0.0
    original = cli.explore
    seen = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            graph = original(*args, **kwargs)
            seen.append(tracemalloc.get_traced_memory()[1] / len(graph.nodes))
            return graph
        finally:
            tracemalloc.stop()

    cli.explore = measured
    try:
        run_job(cli, argv_for(workdir, job))
    finally:
        cli.explore = original
        out_path(workdir, job).unlink(missing_ok=True)
    return seen[0] if seen else 0.0


# ---------------------------------------------------------------------------
# Runs

def measure(cli, inputs, workdir, digests, seconds: float, traced: bool):
    """Untraced passes, or untraced/traced pairs, until `seconds` are used;
    a pass starts only if it should end in time, after the minimum."""
    from spans import Tracer
    untraced: list[Pass] = []
    traced_passes: list[tuple[Pass, dict]] = []
    deadline = time.perf_counter() + seconds
    minimum = 1 if traced else MIN_PASSES
    while True:
        begun = time.perf_counter()
        p = run_pass(cli, inputs, workdir, digests)
        run_probes(cli, inputs, workdir, p)
        untraced.append(p)
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                p = run_pass(cli, inputs, workdir, digests)
            finally:
                tracer.uninstall()
            run_probes(cli, inputs, workdir, p)
            traced_passes.append((p, layer_metrics(tracer.summary(), tracer.counts)))
        now = time.perf_counter()
        if len(untraced) >= minimum and now + (now - begun) > deadline:
            break
    return untraced, traced_passes


def per_layer(cli, inputs, workdir, untraced, traced_passes) -> dict:
    layers = {}
    first = traced_passes[0][1]
    for name in first:
        values = [m[name] for _, m in traced_passes]
        # Counts are equal in every pass.
        layers[name] = (statistics.median(values) if _timed(name)
                        else values[0])
    layers["explorer.bytes_per_state"] = bytes_per_state(cli, inputs, workdir)
    layers["trace_overhead"] = (
        sum(job_medians([p for p, _ in traced_passes], "cal").values())
        / sum(job_medians(untraced, "cal").values()))
    layers.update(rates(inputs, untraced, layers))
    return layers


def _timed(name: str) -> bool:
    """A layer metric measured in time (s, or per s) rather than counted."""
    return PER_LAYER[name] == "s" or PER_LAYER[name].endswith("/s")


def counts_repeat(traced_passes) -> bool:
    counted = [{k: v for k, v in m.items() if not _timed(k)}
               for _, m in traced_passes]
    return all(c == counted[0] for c in counted)


def provenance(workload: str, seed: int, trace: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.exists() else ref
        else:
            commit = ref
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload, "why": workloads.WORKLOADS[workload],
        "seed": seed, "trace": trace, "commit": commit,
        "src_sha256": digest.hexdigest(), "src_lines": lines,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }


def benchmark(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (SRC / "whilelang").is_dir():
        raise HarnessError(f"no whilelang source under {SRC}")
    digests = load_digests()
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, inputs, setup_times = setup(workload, seed, workdir)
        untraced, traced_passes = measure(cli, inputs, workdir, digests,
                                          seconds, bool(trace))
        all_passes = untraced + [p for p, _ in traced_passes]
        failures = {j: why for p in all_passes for j, why in p.failures.items()}
        probe_failures = {j: why for p in all_passes
                          for j, why in p.probe_failures.items()}
        detail = {}
        if trace:
            metrics = per_layer(cli, inputs, workdir, untraced, traced_passes)
            units = PER_LAYER
            detail["counts_repeat"] = counts_repeat(traced_passes)
        else:
            metrics, detail = end_to_end(untraced, setup_times, inputs)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.times) for p in all_passes)
    failed = sum(len(p.failures) for p in all_passes)
    result = {
        "correct": failed == 0 and detail.get("counts_repeat", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    job_times = job_medians(untraced)
    record = dict(provenance(workload, seed, trace),
                  passes=len(all_passes), jobs_per_pass=len(inputs.jobs),
                  pass_seconds=[sum(p.times.values()) for p in all_passes],
                  job_times=dict(sorted(job_times.items(), key=lambda kv: kv[1])),
                  failures=failures, probe_failures=probe_failures,
                  setup_times=setup_times, **detail, result=result)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    """Human-readable lines before the final JSON line."""
    print(f"# {record['workload']} seed={record['seed']} "
          f"commit={record['commit'][:12]} src_lines={record['src_lines']} "
          f"python={record['python']} nproc={record['nproc']} "
          f"passes={record['passes']} jobs/pass={record['jobs_per_pass']}")
    print(f"# why: {record['why']}")
    if "tail_percentile" in record:
        print(f"# job tail is p{record['tail_percentile']} of "
              f"{record['jobs_per_pass']} jobs; in seconds: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in record["seconds"].items()))
    for job, why in sorted(record["failures"].items()):
        print(f"# FAILED {job}: {why}")
    for job, why in sorted(record["probe_failures"].items()):
        print(f"# probe failed {job}: {why}")
    for name, m in record["result"]["metrics"].items():
        print(f"#   {name:28s} {m['value']:.6g} {m['unit']}")


def record_reference() -> None:
    """Write the sha256 digests of every artifact checked by digest."""
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir()
    try:
        cli = import_cli()
        jobs = [j for j in workloads.build("export", 0, workdir).jobs
                if j.expect_digest]
        for index in range(workloads.FRONTEND_POOL):
            src, _ = workloads.frontend_program(index)
            name = f"pool-{index}.whl"
            (workdir / name).write_text(src, encoding="utf-8")
            jobs.append(Job(f"parse-{index}", "parse",
                            ["parse", name, "--out", "{out}"],
                            expect_digest=f"parse-{index}"))
            jobs.append(Job(f"derive-{index}", "check",
                            ["check", name, "--emit-derivation", "--out", "{out}"],
                            expect_digest=f"derive-{index}"))
        digests = {}
        for job in jobs:
            _, code, failure, _ = run_job(cli, argv_for(workdir, job))
            if failure is not None or code != 0:
                raise HarnessError(f"{job.id} failed while recording")
            digests[job.expect_digest] = hashlib.sha256(
                out_path(workdir, job).read_bytes()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = provenance("export", 0, 0)
    REFERENCE.write_text(json.dumps(
        {"commit": prov["commit"], "src_sha256": prov["src_sha256"],
         "digests": dict(sorted(digests.items()))}, indent=1) + "\n",
        encoding="utf-8")
    print(f"wrote {len(digests)} digests to {REFERENCE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write reference.json from the current source")
    parser.add_argument("--self-check", action="store_true",
                        help="check the harness itself")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record_reference()
            return 0
        if args.self_check:
            import selfcheck
            return selfcheck.main()
        if not args.workload:
            parser.error("--workload is required")
        names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
        records = [benchmark(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except HarnessError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    for record in records:
        report(record)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
