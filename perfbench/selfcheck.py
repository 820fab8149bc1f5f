"""Checks of the harness itself: `python3 perfbench/run.py --self-check`.

1. One seed always gives byte-identical inputs, and another seed other ones.
2. The independent shared-variable model agrees with `whilelang outcomes`
   on small instances.
3. A deliberately wrong reference makes a job fail and ok_ratio drop.
4. The tracer restores every attribute it wrapped.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import run
import spans
import workloads


def _inputs_bytes(workload: str, seed: int, workdir) -> dict:
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.build(workload, seed, workdir)
        files = {p.name: p.read_bytes() for p in workdir.iterdir()}
        return {"files": files, "jobs": [dataclasses.astuple(j) for j in
                                         inputs.jobs + inputs.probes]}
    finally:
        shutil.rmtree(workdir)


def same_seed_same_inputs(workdir) -> bool:
    ok = True
    for workload in workloads.BUILDERS:
        a = _inputs_bytes(workload, 7, workdir / "a")
        b = _inputs_bytes(workload, 7, workdir / "b")
        c = _inputs_bytes(workload, 8, workdir / "c")
        ok &= a == b and a != c
    return ok


def model_agrees(cli, workdir) -> bool:
    workdir.mkdir(parents=True)
    jobs = []
    for k, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (2, 4)]:
        for c in (1, 3):
            src = workloads.shared_program("qx", k, n, c)
            name = f"shared-{k}-{n}-{c}"
            (workdir / f"{name}.whl").write_text(src, encoding="utf-8")
            stores = [f"({{qx={v}}})" for v in workloads.shared_finals(k, n, c)]
            jobs.append(run.Job(name, "outcomes",
                                ["outcomes", f"{name}.whl", "--out", "{out}"],
                                expect_out=workloads.outcomes_text(stores)))
    inputs = workloads.Inputs(jobs, [])
    p = run.run_pass(cli, inputs, workdir, {})
    shutil.rmtree(workdir)
    return not p.failures


def wrong_reference_fails(cli, workdir) -> bool:
    workdir.mkdir(parents=True)
    inputs = workloads.build("export", 0, workdir)
    jobs = [j for j in inputs.jobs if j.id in ("run-procs-0", "graph-protect-3-4")]
    digests = {"graph-protect-3-4": "0" * 64}
    wrong = [dataclasses.replace(j, expect_out="void ({i=0, s=0})\n")
             if j.kind == "run" else j for j in jobs]
    p = run.run_pass(cli, workloads.Inputs(wrong, []), workdir, digests)
    shutil.rmtree(workdir)
    return (set(p.failures) == {"run-procs-0", "graph-protect-3-4"}
            and run.ok_ratio([p], 0) == 0.0)


def tracer_restores() -> bool:
    before = spans.installed_attributes()
    tracer = spans.Tracer()
    tracer.install()
    wrapped = spans.installed_attributes()
    tracer.uninstall()
    after = spans.installed_attributes()
    return before == after and all(wrapped[k] != before[k] for k in before)


def main() -> int:
    workdir = run.WORK / f"selfcheck-{os.getpid()}"
    try:
        cli = run.import_cli()
        checks = [
            ("same seed gives byte-identical inputs", same_seed_same_inputs(workdir)),
            ("shared-variable model agrees with whilelang outcomes",
             model_agrees(cli, workdir / "model")),
            ("a wrong reference fails its jobs", wrong_reference_fails(cli, workdir / "wrong")),
            ("tracer restores every wrapped attribute", tracer_restores()),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1
