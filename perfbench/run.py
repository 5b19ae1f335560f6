"""The benchmark of reebtop: one workload per run, timed by the pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload homology|doubles|surfaces
                             --seed N --seconds S [--trace 0|1]

The workload runs in its own fresh interpreter (`worker.py`), at the
default optimisation level, with one caller and no extra threads.
`pass_s`, `cpu_s` and `setup_s` are times at reference speed (see
`reference.py`); `setup_s` is the median set-up time of the set-up-only
interpreters the worker starts between its timed passes.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import sys

from worker import ROOT, finish, start_worker

WORKLOADS = ("homology", "doubles", "surfaces")
OUT = ROOT / ".perfbench_out"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "reebtop" / "__init__.py").is_file():
        print(f"no reebtop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once, untimed, so no set-up sample pays for compilation
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("reebtop sources do not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_out = OUT / f"trace-{name}.json" if args.trace else None
    try:
        proc, _ = start_worker(
            args.workload, args.seed, args.seconds, args.trace, trace_out=trace_out
        )
        result = finish(proc, args.workload)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print(f"error: {args.workload}: worker printed no result", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(result["setup_samples"]),
            "unit": "s",
        }

    print(
        f"{args.workload}: {result['passes']} passes of {result['commands']} commands,"
        f" attempted {result['attempted']}, failed {result['failed']},"
        f" correct {result['correct']}"
    )
    for metric, m in result["metrics"].items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  (median raw pass wall time {result['raw_pass_s']:.6g} s)")
    with open(OUT / f"result-{name}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
