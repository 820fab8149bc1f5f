"""Command-line front door.

Subcommands: parse, check, run, trace, graph, outcomes. Exit codes are a
total, disjoint contract: 0 success, 1 parse error, 2 type error, 3 stuck,
4 budget exhausted or graph truncated, a term nested deeper than the
recursion limit, or a numeral over 4300 digits, 5 usage or IO error (bad
arguments, an input or store file that cannot be read, a malformed store
file, an `--out` file or standard output that cannot be written). Errors
print one line on stderr.

`graph` writes the full reduction graph; `outcomes` explores the
partial-order and symmetry reduced one, which has the same leaves, so its
`--max-states`/`--max-depth` budgets count canonical states (par sides in
sorted order). Its stuck lines list every stuck redex of each stuck leaf;
`run` and `trace` report the first.

`main` builds its argument parser once per process (`parse_args` leaves
it as it was, so one serves every call) and runs each command with the
cyclic garbage collector off, restoring the caller's setting on every
exit. Records are frozen and built bottom-up, so they never form a cycle,
and no command leaves cyclic garbage (tests/test_cli.py checks each
command and exit code): a collection would only traverse every retained
state and free nothing that reference counting does not.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path

from . import env as envmod
from .env import Env, render_store
from .explorer import (
    DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES, DEFAULT_MAX_STEPS, BudgetExceeded,
    Stuck, Terminated, explore, outcomes, run, to_dot, to_json_trace,
)
from .parser import ParseError, parse_program
from .semantics import Configuration, NumeralOverflow
from .syntax import pretty, value_text
from .typesys import TypeCheckError, check_program, render_derivation

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_TYPE = 2
EXIT_STUCK = 3
EXIT_BUDGET = 4
EXIT_USAGE = 5


class _UsageError(Exception):
    """A bad command line or a file that cannot be read or written."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="whilelang",
        description="Parse, type-check, run, and explore While programs.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, runner: bool = False,
               graphish: bool = False) -> None:
        p.add_argument("input", help="program file")
        p.add_argument("--out", help="write output to this file")
        if runner:
            p.add_argument("--schedule", choices=("first", "random"),
                           default="first")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--max-steps", type=_budget, default=DEFAULT_MAX_STEPS)
        if graphish:
            p.add_argument("--max-states", type=_budget,
                           default=DEFAULT_MAX_STATES)
            p.add_argument("--max-depth", type=_budget,
                           default=DEFAULT_MAX_DEPTH)
        if runner or graphish:
            p.add_argument("--initial-store",
                           help="file holding a store rendering like ({a=3, b=5})")
            p.add_argument("--checked", action="store_true",
                           help="type-check before executing")

    common(sub.add_parser("parse", help="parse and pretty-print"))
    check = sub.add_parser("check", help="type-check")
    common(check)
    check.add_argument("--emit-derivation", action="store_true",
                       help="write the full derivation tree")
    common(sub.add_parser("run", help="reduce under one schedule"), runner=True)
    common(sub.add_parser("trace", help="run and write a JSON-lines trace"),
           runner=True)
    common(sub.add_parser("graph", help="explore all interleavings, write DOT"),
           graphish=True)
    common(sub.add_parser("outcomes", help="explore and list final results"),
           graphish=True)
    return top


def _reason(err: OSError | UnicodeError) -> str:
    return getattr(err, "strerror", None) or str(err)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as err:
            raise _UsageError(f"cannot write {out}: {_reason(err)}") from None
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except (OSError, UnicodeError) as err:
            raise _UsageError(
                f"cannot write standard output: {_reason(err)}") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as err:
        raise _UsageError(f"cannot read {path}: {_reason(err)}") from None


def _initial_configuration(args, stmt) -> Configuration:
    store = Env()
    if getattr(args, "initial_store", None):
        try:
            store = envmod.parse_store(_read(args.initial_store))
        except ValueError as err:
            raise _UsageError(
                f"malformed store file {args.initial_store}: {err}") from None
    # The procedure store opens with one empty frame per store frame.
    return Configuration(store, Env(Env().frames * store.depth()), stmt)


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    except _UsageError as err:
        print(f"whilelang: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # The parser, printer, hashing and semantics recurse on the term,
        # so nesting is bounded by the recursion limit, like steps and
        # states by their budgets.
        print("whilelang: error: term nesting exceeds the recursion limit",
              file=sys.stderr)
        return EXIT_BUDGET
    except NumeralOverflow as err:
        print(f"whilelang: error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    text = _read(args.input)
    try:
        stmt = parse_program(text)
    except ParseError as err:
        print(err, file=sys.stderr)
        return EXIT_PARSE

    if getattr(args, "checked", False) or args.command == "check":
        try:
            judgment = check_program(stmt)
        except TypeCheckError as err:
            print(err, file=sys.stderr)
            return EXIT_TYPE
    if args.command == "parse":
        _emit(pretty(stmt) + "\n", args.out)
        return EXIT_OK
    if args.command == "check":
        if args.emit_derivation:
            _emit(render_derivation(judgment), args.out)
        else:
            _emit(f"ok: {judgment.type}\n", args.out)
        return EXIT_OK

    c0 = _initial_configuration(args, stmt)
    if args.command in ("run", "trace"):
        trace = run(c0, schedule=args.schedule, seed=args.seed,
                    max_steps=args.max_steps)
        if args.command == "trace":
            _emit(to_json_trace(trace), args.out)
        match trace.status:
            case Terminated(value):
                if args.command == "run":
                    final = trace.steps[-1][1] if trace.steps else trace.origin
                    _emit(f"{value_text(value)} {render_store(final.store)}\n",
                          args.out)
                return EXIT_OK
            case Stuck(info):
                print(f"stuck: {info.reason}", file=sys.stderr)
                return EXIT_STUCK
            case BudgetExceeded():
                print(f"budget exceeded after {len(trace.steps)} steps",
                      file=sys.stderr)
                return EXIT_BUDGET

    graph = explore(c0, max_states=args.max_states, max_depth=args.max_depth,
                    reduce=args.command == "outcomes")
    if args.command == "graph":
        _emit(to_dot(graph), args.out)
        return EXIT_BUDGET if graph.truncated else EXIT_OK
    if args.command == "outcomes":
        summary = outcomes(graph)
        lines = [f"terminal: {value_text(v)} {store}"
                 for v, store in sorted(summary.terminals,
                                        key=lambda p: (p[1], value_text(p[0])))]
        lines += sorted(f"stuck: {info.reason}" for info in summary.stuck)
        lines.append(f"complete: {'true' if summary.complete else 'false'}")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_BUDGET if graph.truncated else EXIT_OK
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
