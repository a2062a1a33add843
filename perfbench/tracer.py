#!/usr/bin/env python3
"""Run one ora-bob CLI command in-process, with or without layer spans.

    python3 perfbench/tracer.py --out RESULT.json --traced 0|1 -- ARGV...

The package is imported from PYTHONPATH, as the harness sets it.

With ``--traced 1`` the functions in LAYERS are wrapped where ``ora_bob.cli``
and the other modules look them up, so each call records a span (name,
start, end, parent) in memory.  The spans, per-layer self times (span time
minus child spans) and counts are written to RESULT.json when the command
ends.  With ``--traced 0`` only the wall time of ``cli.main(argv)`` is
written, which is the untraced side of ``trace.overhead_frac``.

Counts are taken from outside the program: simplex iterations from the
returned SimplexResult, the tableau size computed from the argument shapes,
trace bytes from file sizes, and closed gates from Trajectory.stopping_time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

# (module or class, attribute, self-time metric).  Spans are named
# "<module>.<attribute>" after where the call is looked up.
LAYERS = (
    ("cli", "execute_cell", "cli.cell_self_ms"),
    ("cli", "audit_trace", "cli.audit_self_ms"),
    ("cli", "aggregate_sweep", "cli.aggregate_ms"),
    ("cli", "load_instance", "environments.load_ms"),
    ("environments", "sample_instance", "environments.sample_ms"),
    ("cli", "run_allocator", "allocator.self_ms"),
    ("core.Instance", "validate", "core.validate_ms"),
    ("cli", "slater_adv", "oracles.slater_ms"),
    ("cli", "opt_lp_relax", "oracles.lp_self_ms"),
    ("oracles", "solve_lp", "simplex.solve_ms"),
    ("cli", "run_summary", "metrics.summary_ms"),
    ("serialization", "instance_hash", "serialization.hash_ms"),
    ("traceio", "write_trace_csv", "traceio.write_ms"),
    ("traceio", "read_trace_csv", "traceio.read_ms"),
    ("traceio", "write_json_atomic", "traceio.json_ms"),
    ("cli", "interval_regret_audit", "dual_ogd.interval_audit_ms"),
    ("cli", "sample_comparator_pairs", "dual_ogd.interval_audit_ms"),
)
ROOT_SPAN, ROOT_METRIC = "cli.main", "cli.main_self_ms"

COUNTS = {
    "allocator.rounds": "count",
    "allocator.gate_closed_runs": "count",
    "serialization.hash_calls": "count",
    "traceio.write_bytes": "bytes",
    "traceio.read_bytes": "bytes",
    "simplex.iterations": "count",
    "simplex.tableau_mb": "MiB",  # computed, the largest of the command
    "environments.load_calls": "count",
    "dual_ogd.pairs": "count",
}
# Every per-layer metric and its unit.  The last three are derived by the
# harness from several commands.
UNITS = {
    **{metric: "ms" for _, _, metric in LAYERS},
    ROOT_METRIC: "ms",
    **COUNTS,
    "allocator.us_per_round": "us",
    "trace.wall_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def tableau_mb(args, kwargs) -> float:
    """Size of the dense tableau solve_lp allocates, computed from its
    arguments: rows x (variables + slacks + artificials + rhs) float64.
    Equality rows and negative-rhs inequality rows get an artificial."""
    bound = dict(zip(("c", "A_ub", "b_ub", "A_eq", "b_eq"), args), **kwargs)
    b_ub, b_eq = bound.get("b_ub"), bound.get("b_eq")
    mu = 0 if b_ub is None else len(b_ub)
    me = 0 if b_eq is None else len(b_eq)
    flipped = 0 if b_ub is None else sum(1 for v in b_ub if v < 0)
    width = len(bound["c"]) + mu + flipped + me + 1
    return (mu + me) * width * 8 / 2**20


def _count(counts, name, args, kwargs, result):
    if name == "cli.run_allocator":
        counts["allocator.rounds"] += result.horizon
        counts["allocator.gate_closed_runs"] += int(result.stopping_time < result.horizon)
    elif name == "serialization.instance_hash":
        counts["serialization.hash_calls"] += 1
    elif name == "traceio.write_trace_csv":
        counts["traceio.write_bytes"] += os.path.getsize(args[0])
    elif name == "traceio.read_trace_csv":
        counts["traceio.read_bytes"] += os.path.getsize(args[0])
    elif name == "oracles.solve_lp":
        counts["simplex.iterations"] += result.iterations
        counts["simplex.tableau_mb"] = max(counts["simplex.tableau_mb"], tableau_mb(args, kwargs))
    elif name == "cli.load_instance":
        counts["environments.load_calls"] += 1
    elif name == "cli.interval_regret_audit":
        counts["dual_ogd.pairs"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            _count(counts, name, args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, _ in LAYERS:
            module, _, cls = owner.partition(".")
            target = importlib.import_module(f"ora_bob.{module}")
            if cls:
                target = getattr(target, cls)
            setattr(target, attr, self.wrap(f"{owner}.{attr}", getattr(target, attr)))

    def layer_metrics(self) -> dict:
        """Self time per layer metric (ms) and the counts."""
        metric_of = {f"{owner}.{attr}": metric for owner, attr, metric in LAYERS}
        metric_of[ROOT_SPAN] = ROOT_METRIC
        values = dict.fromkeys(metric_of.values(), 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            values[metric_of[name]] += 1e3 * (end - start - inner)
        values.update(self.counts)
        return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    from ora_bob import cli

    entry = cli.main
    tracer = Tracer()
    if args.traced:
        tracer.install()
        entry = tracer.wrap(ROOT_SPAN, cli.main)
    start = time.perf_counter()
    rc = entry(argv)
    wall = time.perf_counter() - start
    result = {"rc": rc, "wall_s": wall}
    if args.traced:
        root = tracer.spans[0]
        result["wall_s"] = root[2] - root[1]
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
