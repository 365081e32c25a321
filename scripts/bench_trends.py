#!/usr/bin/env python3
"""Growth-rate experiment: fit log-log cost slopes for the term-set
operations and the four mutation operators over size-doubling corpora.

Example:
    python3 scripts/bench_trends.py --sizes 8,16,32,64,128
"""
import argparse
import sys

from dagmut import BOUND_EXPONENTS, SLACK, trend


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="8,16,32,64")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--term-len", type=int, default=6)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]

    all_ok = True
    print(f"{'operation':<16} {'fitted':>7} {'bound':>6}  verdict  series")
    for kind in BOUND_EXPONENTS:
        report = trend(kind, sizes, seed=args.seed, term_len=args.term_len)
        all_ok &= report.passed
        points = " ".join(f"{s}:{c}" for s, c in report.series)
        print(f"{kind:<16} {report.fitted_exponent:>7.3f} "
              f"{report.bound_exponent:>4.1f}+{SLACK}  {report.verdict:<7}  {points}")
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
