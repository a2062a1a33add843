#!/usr/bin/env python3
"""Run every workload untraced and traced; print every metric with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--out FILE]

Each workload runs through run.py exactly as a single benchmark run does,
once with --trace 0 (end-to-end metrics) and once with --trace 1 (per-layer
metrics).  The table also gives failed_frac, failed operations over
attempted ones.  The results are written to FILE (default
.bench_work/report.json) next to the machine they ran on: nproc, CPU model,
Python and numpy versions, the pinned BLAS thread variables and the git SHA.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run as harness


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=harness.child_env(), capture_output=True, text=True,
    ).stdout.strip()
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True, text=True
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        sha = "unknown (no git)"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy or "unknown",
        "blas_threads": {k: v for k, v in harness.PINNED_ENV.items() if k.endswith("_THREADS")},
        "git_sha": sha,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=str(harness.WORK / "report.json"))
    args = parser.parse_args()
    info = machine()
    print(json.dumps(info))
    results = {}
    ok = True
    print(f"{'workload':14s} {'metric':28s} {'value':>14s} unit")
    for workload in harness.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(harness.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=harness.ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} --trace {trace} failed:\n{proc.stdout}{proc.stderr}")
                return 2
            result = json.loads(lines[-1])
            results[f"{workload}/trace{trace}"] = result
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                print(f"{workload:14s} {name:28s} {metric['value']:14.6g} {metric['unit']}")
            failed_frac = result["failed"] / result["attempted"]
            print(f"{workload:14s} {'failed_frac':28s} {failed_frac:14.6g} ratio"
                  f"  ({result['failed']} of {result['attempted']}, trace {trace})")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"machine": info, "seed": args.seed, "seconds": args.seconds,
                   "results": results}, fh, indent=1)
    print(f"written {args.out}; all outputs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
