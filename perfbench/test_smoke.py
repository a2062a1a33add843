"""Smoke test of the benchmark harness at tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as harness

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=harness.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert f"reference=tiny/{workload}/0" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace:  # self times account for the traced wall time
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        self_ms = sum(v for name, v in values.items()
                      if name.endswith("_ms") and name != "trace.wall_ms")
        assert self_ms == pytest.approx(values["trace.wall_ms"], rel=1e-9)


def test_seed_beyond_the_stored_ones_uses_a_stored_reference():
    proc = bench("--workload", "run_seeds", "--seed", "33", "--seconds", "0.2",
                 "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "reference=tiny/run_seeds/1" in lines[0]
    assert json.loads(lines[-1])["correct"] is True


def test_every_seed_maps_onto_a_stored_reference():
    refs = harness.load_refs()
    assert len(refs["model_seeds"]) == max(harness.STORED_SEEDS.values())
    for size, count in harness.STORED_SEEDS.items():
        for workload in harness.WORKLOADS:
            plan, ref = harness.stored_plan(refs, workload, size, count + 5)
            assert (plan, ref) == harness.stored_plan(refs, workload, size, 5 % count)
            assert ref
    with pytest.raises(harness.BenchError):
        harness.stored_plan({"model_seeds": refs["model_seeds"]}, "run_seeds", "full", 0)


def test_refuses_without_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "run_seeds", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_check():
    ref = {"digest": "ab", "lp": [2.0, [1.0, None]]}
    assert harness.matches(ref, ref)
    assert harness.matches({"digest": "ab", "lp": [2.0 * (1 + 1e-12), [1.0, None]]}, ref)
    assert not harness.matches({"digest": "ab", "lp": [2.0 * (1 + 1e-6), [1.0, None]]}, ref)
    assert not harness.matches({"digest": "ab", "lp": [2.0, [1.0, 0.5]]}, ref)
    assert not harness.matches({**ref, "digest": "cd"}, ref)
    assert not harness.matches({"digest": "ab"}, ref)
