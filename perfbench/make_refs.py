#!/usr/bin/env python3
"""Regenerate refs.json: the model-seed table and the reference outputs.

    python3 perfbench/make_refs.py

Run it from the repository root, and only when the program's outputs change
on purpose: the references are what every benchmark run compares against.

The model-seed table holds, in order, the random_model seeds whose S=40
model closes the budget gate between 0.6 T and 0.95 T in two probe cells at
T=2000, so that run_seeds and audit_replay exercise the allocator's
exact-Fraction gate path.  Then, for each workload seed below
run.STORED_SEEDS (32 at full size, 2 at tiny size), it runs each workload's
set-up and commands once and stores the records the harness compares with.
"""

from __future__ import annotations

import json
import sys

import run as harness

PROBE_T = 2000
PROBE_CELLS = (0, 1)


def gate_closing_model_seeds(count: int) -> list[int]:
    sys.path.insert(0, str(harness.SRC))
    from ora_bob import environments
    from ora_bob.allocator import run
    from ora_bob.dual_ogd import OgdConfig, learning_rate

    S = harness.SIZES["full"]["run_seeds"]["S"]
    eta = learning_rate(PROBE_T, 4, 0.05)  # the CLI's default delta, M = m + n = 4
    found, candidate = [], 0
    while len(found) < count:
        params = {"S": str(S), "K": "4", "m": "2", "n": "2", "seed": str(candidate)}
        model = environments.build_generator("random_model", params)
        taus = [
            run(environments.sample_instance(model, PROBE_T, c), OgdConfig(eta=eta, delta=0.05))
            .stopping_time
            for c in PROBE_CELLS
        ]
        if all(0.6 * PROBE_T <= tau <= 0.95 * PROBE_T for tau in taus):
            found.append(candidate)
        candidate += 1
    return found


def gate_open(stem) -> bool:
    """Whether a cell's budget gate stayed open to the end."""
    payload = json.loads(stem.with_suffix(".json").read_text())
    return payload["summary"]["tau"] >= payload["config"]["T"]


def reference(model_seeds: list[int], size: str, workload: str, seed: int) -> tuple[dict, int]:
    """Run set-up and each command once; return the records and the number
    of cells whose gate never closed."""
    plan = harness.make_plan(workload, size, seed, model_seeds[seed])
    run = harness.Run(plan, {})
    try:
        run.warm_up()
        run.set_up()
        for stem in plan.setup_traces:
            run.ref[stem] = harness.cell_record(run.workdir, stem)
        open_cells = sum(map(gate_open, (run.workdir / s for s in plan.setup_traces)))
        for index, command in enumerate(plan.commands):
            rc = run.execute(index).rc
            if workload != "audit_replay":  # an audit writes no cells
                run.ref.update(harness.output_records(command, run.workdir))
            run.check(command, rc)
            if workload == "run_seeds":
                open_cells += sum(map(gate_open, (run.workdir / s for s in command.outputs)))
        run.check_setup()
        if run.failed or run.problems:
            raise SystemExit(f"{workload} seed {seed}: {run.problems}")
        return run.ref, open_cells
    finally:
        harness.shutil.rmtree(run.dir, ignore_errors=True)


def main() -> int:
    harness.check_program()
    model_seeds = gate_closing_model_seeds(max(harness.STORED_SEEDS.values()))
    refs = {"model_seeds": model_seeds}
    open_total = 0
    for size, count in harness.STORED_SEEDS.items():
        for workload in harness.WORKLOADS:
            for seed in range(count):
                records, open_cells = reference(model_seeds, size, workload, seed)
                refs[f"{size}/{workload}/{seed}"] = records
                open_total += open_cells if size == "full" else 0
    print(f"full-size run/audit cells whose gate stayed open: {open_total}")
    lines = (f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in refs.items())
    harness.REFS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
