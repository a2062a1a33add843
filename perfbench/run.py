#!/usr/bin/env python3
"""Benchmark harness: drives the ora-bob CLI from outside, one command at a time.

Run from the repository root:

    python3 perfbench/run.py --workload run_seeds --seed 3 --seconds 20 --trace 0

A run makes its inputs from ``--seed`` with the CLI's own set-up commands
(``ora-bob gen``, and for ``audit_replay`` the ``ora-bob run`` that writes the
traces it audits).  It then runs the workload command in a closed loop until
the commands have taken ``--seconds`` seconds: one command at a time,
``--jobs 1``, a fresh child process per command, BLAS thread variables pinned
to 1 in the child.  The set-up is repeated SETUP_REPEATS times in all, spread
over the loop, to time it.  Commands and set-ups are timed by the CPU time
of their child process (see ``spawn``).  Every output is checked against the
reference in ``refs.json``; seeds repeat with a period of the number of
stored references.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
command in-process through ``tracer.py`` instead, alternating untraced and
traced children, and reports the per-layer metrics.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = BENCH / "refs.json"
TRACER = BENCH / "tracer.py"

# What the installed console script `ora-bob` runs.
ENTRY = "import sys; sys.argv[0] = 'ora-bob'; from ora_bob.cli import entrypoint; entrypoint()"
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_REPEATS = 9  # set-ups timed per end-to-end run
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
LP_RTOL = 1e-9  # LP-derived fields may move this much when the solver changes

WORKLOADS = ("run_seeds", "sweep_lp", "audit_replay")
# Workload seeds with a stored reference, per size; make_refs.py writes them.
STORED_SEEDS = {"full": 32, "tiny": 2}
# Model shape and length per workload; "tiny" is the smoke test's size.
# sweep_lp's LP cost varies by instance, so its closed loop cycles through
# "blocks" distinct cell-seed blocks and one run averages several instances.
# Its horizons stop at T=200, where the dense tableau (about 1.3 MiB) stays
# near the 2 MiB L2 cache: at T=400 (6 MiB) the simplex is bound by a memory
# bandwidth that other tenants of a shared host move by a third.
SIZES = {
    "full": {
        "run_seeds": {"S": 40, "T": 2000, "cells": 8},
        "sweep_lp": {"S": 1000, "T": (100, 200), "cells": 1, "blocks": 4},
        "audit_replay": {"S": 40, "T": 8000, "cells": 2, "pairs": 200},
    },
    "tiny": {
        "run_seeds": {"S": 40, "T": 200, "cells": 2},
        "sweep_lp": {"S": 400, "T": (20, 40), "cells": 1, "blocks": 2},
        "audit_replay": {"S": 40, "T": 400, "cells": 2, "pairs": 20},
    },
}
END_TO_END_UNITS = {"rounds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run: no program, or a set-up command failed."""


@dataclass(frozen=True)
class Command:
    """One measured CLI command and the outputs its check reads."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # cell stems it writes (run, sweep) or traces it audits
    rounds: int  # simulated rounds: sum of T over those cells or traces
    fit: str | None = None  # the sweep fit JSON it writes


@dataclass(frozen=True)
class Plan:
    """Everything one workload run needs, made from (workload, size, seed)."""

    workload: str
    setup: tuple[tuple[str, ...], ...]  # CLI argv lists, run in order
    commands: tuple[Command, ...]  # the closed loop cycles through these
    setup_traces: tuple[str, ...]  # trace stems set-up writes
    pairs: int  # interval-regret pairs expected per audited trace
    out: str  # what to delete before each command


def make_plan(workload: str, size: str, seed: int, model_seed: int) -> Plan:
    p = SIZES[size][workload]
    cells = p["cells"]
    first = 1000 * seed

    def cell_seeds(block: int = 0) -> range:
        return range(first + block * cells, first + (block + 1) * cells)

    def seeds_arg(block: int = 0) -> str:
        seeds = cell_seeds(block)
        return f"{seeds.start}:{seeds.stop}"

    gen = (
        "gen", "--generator", "random_model", "--param", f"S={p['S']}",
        "--param", "K=4", "--param", "m=2", "--param", "n=2",
        "--param", f"seed={model_seed}", "--out", "model.json",
    )
    if workload == "run_seeds":
        run = Command(
            ("run", "--instance", "model.json", "--T", str(p["T"]), "--seeds", seeds_arg(),
             "--jobs", "1", "--out", "out", "--name", "run"),
            tuple(f"out/run_{c}" for c in cell_seeds()),
            p["T"] * cells,
        )
        return Plan(workload, (gen,), (run,), (), 0, "out")
    if workload == "sweep_lp":
        horizons = p["T"]
        commands = tuple(
            Command(
                ("sweep", "--instance", "model.json", "--T", ",".join(map(str, horizons)),
                 "--seeds", seeds_arg(b), "--benchmark", "lp", "--jobs", "1",
                 "--out", "out", "--name", f"b{b}"),
                tuple(f"out/b{b}_T{T}_{c}" for T in horizons for c in cell_seeds(b)),
                sum(horizons) * cells,
                f"out/b{b}_sweep_fit.json",
            )
            for b in range(p["blocks"])
        )
        return Plan(workload, (gen,), commands, (), 0, "out")
    if workload == "audit_replay":
        traces = tuple(f"traces/replay_{c}" for c in cell_seeds())
        write = ("run", "--instance", "model.json", "--T", str(p["T"]), "--seeds", seeds_arg(),
                 "--jobs", "1", "--out", "traces", "--name", "replay")
        audit = Command(
            ("audit", *(f"{t}.csv" for t in traces), "--pairs", str(p["pairs"]),
             "--out", "audit.json"),
            traces,
            p["T"] * cells,
        )
        return Plan(workload, (gen, write), (audit,), traces, p["pairs"], "audit.json")
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Correctness: digests of outputs, compared with the stored reference
# ---------------------------------------------------------------------------


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def trace_rows(path: Path) -> bytes:
    """A trace's column row and data rows: the `# ` header lines are left out,
    because instance_hash and schema_version there may change on purpose."""
    data = path.read_bytes()
    start = 0
    while data.startswith(b"#", start):
        start = data.index(b"\n", start) + 1
    return data[start:]


def cell_record(workdir: Path, stem: str) -> dict:
    """Digest of a cell's trace rows and exact summary fields, plus its
    LP-derived fields [benchmark_value, regret, alpha_regret], which are
    compared to a relative LP_RTOL."""
    rows = trace_rows(workdir / f"{stem}.csv")
    payload = json.loads((workdir / f"{stem}.json").read_text())
    summary = dict(payload["summary"])
    lp = [payload["benchmark_value"], summary.pop("regret"), summary.pop("alpha_regret")]
    exact = {
        "config": {k: v for k, v in payload["config"].items() if k != "schema_version"},
        "rho_adv": payload["rho_adv"],
        "summary": summary,
    }
    record = {"digest": _digest(rows, _canonical(exact))}
    if any(v is not None for v in lp):
        record["lp"] = lp
    return record


def fit_record(path: Path) -> dict:
    """Digest of the sweep fit's exact fields, plus [mean_regret, slope_regret]."""
    fit = json.loads(path.read_text())
    exact = {k: fit[k] for k in ("T", "mean_violation_positive_part", "slope_violation")}
    return {"digest": _digest(_canonical(exact)), "lp": [fit["mean_regret"], fit["slope_regret"]]}


def lp_close(a, b) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (
            isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
            and all(map(lp_close, a, b))
        )
    if a is None or b is None:
        return a is b
    return abs(a - b) <= LP_RTOL * max(abs(a), abs(b))


def matches(record: dict, ref: dict) -> bool:
    return record["digest"] == ref["digest"] and lp_close(record.get("lp"), ref.get("lp"))


def _read(reader, *args):
    try:
        return reader(*args)
    except (OSError, ValueError, KeyError):
        return None


def output_records(command: Command, workdir: Path) -> dict:
    """The records of what a run or sweep command wrote, by output name;
    None for an output that is missing or unreadable."""
    records = {stem: _read(cell_record, workdir, stem) for stem in command.outputs}
    if command.fit:
        records[command.fit] = _read(fit_record, workdir / command.fit)
    return records


def count_failures(plan: Plan, command: Command, workdir: Path, rc: int,
                   ref: dict) -> tuple[int, list[str]]:
    """Failed operations of one command and why.  An operation is a cell for
    run/sweep and a trace for audit.  It fails on a non-zero exit, a missing
    output, or an output that differs from its record in ``ref``."""
    ops = len(command.outputs)
    if rc != 0:
        return ops, [f"exit code {rc}"]
    if plan.workload == "audit_replay":
        results = _read(lambda: json.loads((workdir / "audit.json").read_text())["traces"])
        if results is None:
            return ops, ["audit.json missing or unreadable"]
        by_trace = {r.get("trace"): r for r in results}
        bad = []
        for stem in command.outputs:
            r = by_trace.get(f"{stem}.csv")
            if r is None or r.get("ok") is not True or len(r["interval_regret"]["pairs"]) != plan.pairs:
                bad.append(f"{stem}.csv: not ok or not {plan.pairs} pairs")
        return len(bad), bad
    bad = [
        name for name, record in output_records(command, workdir).items()
        if record is None or ref.get(name) is None or not matches(record, ref[name])
    ]
    why = [f"{name} missing or differs from the reference" for name in bad]
    if command.fit in bad:  # a wrong aggregate fails every cell it aggregates
        return ops, why
    return len(bad), why


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class Usage:
    """What one child process took, from just before the fork to the reap."""

    wall: float  # seconds
    cpu: float  # user + system seconds of the child, from os.wait4
    peak_mb: float  # the child's ru_maxrss, in MiB
    rc: int  # exit code


def spawn(argv, cwd: Path, timeout: float) -> Usage:
    """Run a child to exit and return what it took.  Output goes to
    ``cwd/child.out``.

    The CPU time leaves out the time a virtual machine's host gives the
    vCPU to other guests (steal time, which the guest kernel does not charge
    to the task), so it is the program's own time to run a command with
    ``--jobs 1`` that waits on no other process.  On a shared 2-vCPU VM,
    steal made one run_seeds command take 1.0 to 2.8 s of wall time for
    0.6 to 0.86 s of CPU time.
    """
    with open(cwd / "child.out", "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=child_env(), stdout=out, stderr=out)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_argv(argv) -> list[str]:
    return [sys.executable, "-c", ENTRY, *argv]


def child_output(cwd: Path) -> str:
    text = (cwd / "child.out").read_text(errors="replace")
    return text[-2000:]


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def load_refs() -> dict:
    if not REFS.is_file():
        raise BenchError(f"{REFS} is missing")
    return json.loads(REFS.read_text())


def stored_plan(refs: dict, workload: str, size: str, seed: int) -> tuple[Plan, dict]:
    """The plan and the stored reference for a workload seed.  Seeds repeat
    with period STORED_SEEDS[size], so every run is checked against a stored
    reference.  The seed's random_model seed comes from refs["model_seeds"],
    which holds seeds whose S=40 models close the budget gate before T (see
    make_refs.py), so the allocator's exact-Fraction gate path runs."""
    seed %= STORED_SEEDS[size]
    ref = refs.get(f"{size}/{workload}/{seed}")
    if ref is None:
        raise BenchError(f"refs.json has no reference for {size}/{workload}/{seed}")
    return make_plan(workload, size, seed, refs["model_seeds"][seed]), ref


def check_program():
    if not (SRC / "ora_bob" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'ora_bob'}; run from a full checkout")


class Run:
    def __init__(self, plan: Plan, ref: dict):
        self.plan = plan
        self.ref = ref  # output name -> reference record
        self.started = time.monotonic()
        self.dir = WORK / f"{plan.workload}-{os.getpid()}"
        self.setups = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        """Seconds a child may take before it is killed."""
        return max(5.0, RUN_DEADLINE_S - (time.monotonic() - self.started))

    def warm_up(self):
        """Compile the package's bytecode and load it into the page cache,
        which a user's installed CLI has already done."""
        self.dir.mkdir(parents=True)
        used = spawn([sys.executable, "-c", "import ora_bob.cli"], self.dir, self.remaining())
        if used.rc != 0:
            raise BenchError(f"cannot import ora_bob.cli:\n{child_output(self.dir)}")

    def set_up(self) -> float:
        """Run the set-up commands in a fresh directory; return their CPU
        time.  The workload runs in the first set-up's directory; later
        set-ups are only timed, and their directories deleted."""
        workdir = self.dir / f"setup{self.setups}"
        workdir.mkdir()
        total = 0.0
        for argv in self.plan.setup:
            used = spawn(cli_argv(argv), workdir, self.remaining())
            if used.rc != 0:
                raise BenchError(f"set-up {argv[0]} exited {used.rc}:\n{child_output(workdir)}")
            total += used.cpu
        if self.setups == 0:
            self.workdir = workdir
        else:
            shutil.rmtree(workdir)
        self.setups += 1
        return total

    def check_setup(self):
        """Compare the traces the first set-up wrote with their reference."""
        for stem in self.plan.setup_traces:
            record = _read(cell_record, self.workdir, stem)
            if record is None or self.ref.get(stem) is None or not matches(record, self.ref[stem]):
                self.problems.append(f"set-up trace {stem} missing or differs from the reference")

    def execute(self, index: int, traced: int | None = None) -> Usage:
        """Run the index-th command of the cycle on a clean output.  With
        ``traced`` 0 or 1 it runs in-process under tracer.py, which writes
        tracer.json; the exit code is then the CLI's."""
        command = self.plan.commands[index % len(self.plan.commands)]
        target = self.workdir / self.plan.out
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()
        if traced is None:
            argv = cli_argv(command.argv)
        else:
            argv = [sys.executable, str(TRACER), "--out", "tracer.json",
                    "--traced", str(traced), "--", *command.argv]
        used = spawn(argv, self.workdir, self.remaining())
        if used.rc == 0 and traced is not None:
            rc = json.loads((self.workdir / "tracer.json").read_text())["rc"]
            used = Usage(used.wall, used.cpu, used.peak_mb, rc)
        return used

    def check(self, command: Command, rc: int):
        """Count the command's operations and those that failed."""
        self.attempted += len(command.outputs)
        failed, why = count_failures(self.plan, command, self.workdir, rc, self.ref)
        self.failed += failed
        self.problems.extend(why)
        if rc != 0:
            self.problems.append(child_output(self.workdir))

    def run_command(self, index: int, traced: int | None = None) -> Usage:
        """Run the index-th command of the cycle and check what it wrote."""
        used = self.execute(index, traced)
        self.check(self.plan.commands[index % len(self.plan.commands)], used.rc)
        return used

    def end_to_end(self, seconds: float, first_setup: float) -> tuple[dict, dict]:
        """Run whole passes through the commands until they have taken
        ``seconds`` of wall time.  The other SETUP_REPEATS - 1 set-ups are
        spread evenly over the loop, so that setup_s samples the same stretch
        of time as the commands.  rounds_per_s is all the rounds run over
        the commands' total CPU time; setup_s is the mean set-up CPU time."""
        commands = self.plan.commands
        rss, setups = [], [first_setup]
        rounds, cpu, busy = 0, 0.0, 0.0
        while len(rss) % len(commands) or busy < seconds:
            used = self.run_command(len(rss))
            rounds += commands[len(rss) % len(commands)].rounds
            cpu += used.cpu
            busy += used.wall
            rss.append(used.peak_mb)
            while len(setups) < SETUP_REPEATS and busy >= seconds * len(setups) / SETUP_REPEATS:
                setups.append(self.set_up())
        values = {
            "rounds_per_s": rounds / cpu,
            "setup_s": statistics.fmean(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        samples = {"rounds_per_s": len(rss), "setup_s": len(setups), "peak_rss_mb": len(rss)}
        self.wall_rate = rounds / busy
        return values, samples

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        """Run each command untraced and then traced, each in a fresh
        in-process child, until ``seconds`` have passed."""
        walls = {0: [], 1: []}
        layers, spans = [], []
        deadline = time.monotonic() + seconds
        pair = 0
        while not (walls[0] and walls[1]) or time.monotonic() < deadline:
            if self.remaining() < 10.0:
                raise BenchError("no traced command completed in time")
            for traced in (0, 1):
                if self.run_command(pair, traced).rc == 0:
                    result = json.loads((self.workdir / "tracer.json").read_text())
                    walls[traced].append(result["wall_s"])
                    if traced:
                        layers.append(result["layers"])
                        spans.append(result["spans"])
            pair += 1
        values = {name: statistics.fmean(layer[name] for layer in layers) for name in layers[0]}
        rounds = values["allocator.rounds"]
        values["allocator.us_per_round"] = 1e3 * values["allocator.self_ms"] / rounds if rounds else 0.0
        values["trace.wall_ms"] = 1e3 * statistics.fmean(walls[1])
        values["trace.overhead_frac"] = statistics.median(walls[1]) / statistics.median(walls[0]) - 1.0
        (WORK / f"{self.plan.workload}-spans.json").write_text(json.dumps(spans))
        samples = dict.fromkeys(values, len(layers))
        samples["trace.overhead_frac"] = len(walls[0]) + len(walls[1])
        return values, samples


def print_table(values: dict, samples: dict, units: dict):
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} n={samples[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="problem size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # On SIGTERM, unwind as on an error: the running child is killed and
    # reaped (spawn) and the run directory removed (below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        check_program()
        run = Run(*stored_plan(load_refs(), args.workload, args.size, args.seed))
        try:
            run.warm_up()
            first_setup = run.set_up()
            run.check_setup()
            if args.trace:
                from tracer import UNITS as units

                values, samples = run.per_layer(args.seconds)
            else:
                units = END_TO_END_UNITS
                values, samples = run.end_to_end(args.seconds, first_setup)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = run.failed == 0 and not run.problems
    print(f"workload={args.workload} size={args.size} seed={args.seed} trace={args.trace} "
          f"reference={args.size}/{args.workload}/{args.seed % STORED_SEEDS[args.size]}")
    print_table(values, samples, units)
    if not args.trace:
        print(f"  {'  over wall time':28s} {run.wall_rate:14.6g} 1/s")
    print(f"  {'failed_frac':28s} {run.failed / run.attempted:14.6g} ratio  "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:20]:
        print(f"  FAILED: {problem}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
