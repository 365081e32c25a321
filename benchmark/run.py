#!/usr/bin/env python3
"""Run one workload of the dagmut benchmark and print its metrics.

    python3 benchmark/run.py --workload sparse --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``dagmut`` from ``src/``.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones from a traced run.  One line per metric
(value, unit, samples behind it) is followed by the verdict line: a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``benchmark/README.md`` for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sparse", "dense", "verify")


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dagmut" / "__init__.py").is_file():
        print(f"error: no dagmut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # one thread: numpy, imported by dagmut, would start BLAS worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               ROOT, Path(workdir))

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={sys.version.split()[0]} nproc={os.cpu_count()}")
    values, metrics = result["values"], {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name in values:
            value, samples = values[name]
        elif args.trace and name.endswith((".calls", ".self_s")):
            value, samples = 0, "not called"
        else:
            raise KeyError(f"the benchmark does not measure {name!r}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit} ({samples})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    correct = failed == 0 and result.get("consistent", True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
