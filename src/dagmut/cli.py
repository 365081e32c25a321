"""Command-line front end.

Subcommands: ``convert`` (graph file to expression), ``mutate`` (apply a
script to a graph and report the resulting model), ``verify`` (randomized
differential check against the brute-force reference) and ``bench``
(empirical growth-rate trends).  Results go to stdout, diagnostics to
stderr; exit status 0 = ok, 1 = input error or exhausted memory, 2 =
verification or bench failure.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import ModelError
from .graph import parse_graph, render_graph, render_paths
from .metrics import BOUND_EXPONENTS, MAX_TREND_SIZE, SLACK, trend
from .mutate import model_from_graph, apply_script
from .ops import parse_script
from .oracle import run_differential
from .sopf import print_sopf


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc


def _run_convert(args) -> int:
    # render_paths (and model_from_graph below) reject cyclic graphs
    print(render_paths(parse_graph(_read(args.graph)), dotted=args.format == "machine"))
    return 0


def _run_mutate(args) -> int:
    state = model_from_graph(parse_graph(_read(args.graph)))
    text = args.script if args.script is not None else _read(args.script_file)
    ops = parse_script(text)
    state, log = apply_script(state, ops)
    machine = args.format == "machine"
    if machine:
        print(f"re={print_sopf(state.re, dotted=True)}")
        for k, entry in enumerate(log, 1):
            print(f"op={k} notation={entry.notation} "
                  f"added={entry.terms_added} removed={entry.terms_removed}")
        for line in render_graph(state.dg).splitlines():
            print(f"graph={line}")
    else:
        print(f"re: {print_sopf(state.re)}")
        print("log:")
        for k, entry in enumerate(log, 1):
            print(f"  {k} {entry.notation} added={entry.terms_added} "
                  f"removed={entry.terms_removed}")
        print("graph:")
        print(render_graph(state.dg), end="")
    return 0


def _run_verify(args) -> int:
    try:
        report = run_differential(trials=args.trials, base_seed=args.seed,
                                  max_nodes=args.max_nodes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "machine":
        print(f"trials={report.trials} ok={report.passed_trials()} "
              f"steps={report.steps_checked} "
              f"verdict={'pass' if report.ok else 'fail'}")
    else:
        print(f"{report.passed_trials()}/{report.trials} equivalent")
    for failure in report.failures:
        print(f"trial {failure.trial} (seed {failure.seed}) step {failure.step} "
              f"[{failure.kind}] script '{failure.script}': {failure.detail}",
              file=sys.stderr)
    return 0 if report.ok else 2


def _run_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        reports = [trend(kind, sizes, seed=args.seed) for kind in BOUND_EXPONENTS]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        if args.format == "machine":
            for size, cost in report.series:
                print(f"op={report.op_kind} size={size} cost={cost} "
                      f"exponent={report.fitted_exponent:.3f} verdict={report.verdict}")
        else:
            points = " ".join(f"{size}:{cost}" for size, cost in report.series)
            print(f"{report.op_kind}: exponent {report.fitted_exponent:.2f} "
                  f"(bound {report.bound_exponent:.1f}+{SLACK}) {report.verdict}  [{points}]")
    return 0 if all(r.passed for r in reports) else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call in a process: building
    it costs about a millisecond, as much as converting a small model."""
    parser = argparse.ArgumentParser(
        prog="dagmut",
        description="Mutate acyclic graph models and their sum-of-products "
                    "regular expressions in lockstep.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="print the expression of a graph file")
    p.add_argument("graph", type=Path)
    p.add_argument("--format", choices=("pretty", "machine"), default="pretty")
    p.set_defaults(run=_run_convert)

    p = sub.add_parser("mutate", help="apply a mutation script to a graph file")
    p.add_argument("graph", type=Path)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--script", help="script text, e.g. '(cd)o_a (df)i_a'")
    group.add_argument("--script-file", type=Path)
    p.add_argument("--format", choices=("pretty", "machine"), default="pretty")
    p.set_defaults(run=_run_mutate)

    p = sub.add_parser("verify", help="differential check against the reference")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nodes", type=int, default=10)
    p.add_argument("--format", choices=("pretty", "machine"), default="pretty")
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("bench", help="empirical growth-rate trend reports")
    p.add_argument("--sizes", default="8,16,32,64",
                   help="comma-separated term-set sizes (at least 4, each in "
                        f"2..{MAX_TREND_SIZE})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("pretty", "machine"), default="pretty")
    p.set_defaults(run=_run_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # a path-explosive graph can have more words than memory holds
        pass
    # reported once the exception, and the frames holding those words, are gone
    print("error: out of memory (too many terms to hold)", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
