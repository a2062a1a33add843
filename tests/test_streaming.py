"""The routines that work a block of ROUND_BLOCK rounds at a time: the
instance hash, the trace writer and the exactness and dominance audits.
Each must give the bytes of its one-shot form, at and around the block
edges, and keep its transient memory bounded whatever the horizon."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

import ora_bob as ob
from ora_bob import cli, serialization as ser, traceio
from ora_bob.core import ROUND_BLOCK
from ora_bob.dual_ogd import OgdConfig, dominance
from ora_bob.lagrangian import penalties
from rowstacks import rewards_stack, trace_columns, unified_stack

BLOCK_EDGES = (1, ROUND_BLOCK - 1, ROUND_BLOCK, ROUND_BLOCK + 1)

#: Traced-memory bound for each streamed routine, at any horizon: about
#: twice the trace writer's peak with 1,024-round blocks.  The one-shot forms
#: pass 15 MB at T = 64,000.
PEAK_BOUND = 2_000_000


def _instances(T):
    """A sampled instance (few rows, M = 4) and one with T distinct rows and
    M = 9, which sums each lambda_l1 over more than 8 duals."""
    model = ob.random_model(3, S=5, K=3, m=2, n=2, feasibility_margin=0.2, horizon=T)
    return [ob.sample_instance(model, T, 9),
            ob.random_instance(4, T=T, K=3, m=4, n=5, feasibility_margin=0.2)]


def _one_shot_columns(trajectory):
    """The trace columns computed over all rounds at once."""
    T, m = trajectory.horizon, trajectory.num_general
    cols = {
        "t": np.arange(1, T + 1, dtype=np.int64),
        "action": trajectory.actions,
        "candidate": trajectory.candidates,
        "gate_open": trajectory.gate_open.astype(np.int64),
        "reward": trajectory.rewards,
        "cum_reward": np.cumsum(trajectory.rewards),
        "lambda_l1": np.abs(trajectory.duals[:-1]).sum(axis=1),
        "max_general_violation_cum": (
            np.cumsum(trajectory.unified_values[:, :m], axis=0).max(axis=1) if m else np.zeros(T)
        ),
    }
    for j in range(trajectory.num_resources):
        cols[f"cum_consumption_{j + 1}"] = trajectory.cumulative_consumption[:, j]
    return cols


def _one_shot_trace_text(trajectory, header):
    cols = _one_shot_columns(trajectory)
    lines = [f"# {key}={value}" for key, value in header.items()]
    lines.append(",".join(cols))
    cells = [list(map(str if a.dtype.kind in "iu" else repr, a.tolist())) for a in cols.values()]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _one_shot_exactness(trajectory, columns):
    """The exactness report of the read ``columns`` against the one-shot
    columns of ``trajectory``."""
    mismatches = []
    for name, expected in _one_shot_columns(trajectory).items():
        read = columns.get(name)
        if read is None or read.shape != expected.shape:
            mismatches.append({"column": name, "round": None, "reason": "missing"})
            continue
        for i in np.flatnonzero(read != expected)[:10]:
            mismatches.append({"column": name, "round": int(i) + 1, "reason": "mismatch"})
    return {"ok": not mismatches, "mismatches": mismatches}


def _one_shot_dominance(trajectory):
    instance = trajectory.instance
    values = rewards_stack(instance) - penalties(
        unified_stack(instance).transpose(1, 0, 2), trajectory.duals[:-1].T[:, :, None]
    )
    chosen = values[np.arange(trajectory.horizon), trajectory.candidates]
    bad = np.flatnonzero(trajectory.gate_open & (chosen < values.max(axis=1)))
    return {"ok": not bad.size, "failing_rounds": (bad[:10] + 1).tolist()}


@pytest.mark.parametrize("T", BLOCK_EDGES)
def test_streamed_outputs_match_one_shot(tmp_path, T):
    header = {"schema_version": 1, "T": T, "K": "-", "m": "-", "n": "-", "seed": 0, "eta": 0.05,
              "delta": 0.05, "rng": "-", "instance_hash": "-", "config": "{}"}
    for k, inst in enumerate(_instances(T)):
        assert ser.instance_hash(inst) == ser.content_hash(ser.hash_form(inst))
        tr = ob.run(inst, OgdConfig(eta=0.05, delta=0.05))  # the schedule needs T >= 2
        path = tmp_path / f"trace{k}.csv"
        traceio.write_trace_csv(path, tr, header)
        assert path.read_bytes().decode("utf-8") == _one_shot_trace_text(tr, header)
        expected = _one_shot_columns(tr)
        columns = trace_columns(tr)
        assert list(columns) == list(expected)
        for name, column in columns.items():
            assert column.dtype == expected[name].dtype
            assert column.tobytes() == expected[name].tobytes(), name
        assert dominance(tr) == _one_shot_dominance(tr)
        # the last eleven rewards edited (across the block edge at
        # T = ROUND_BLOCK + 1), the last cum_reward edited and one column deleted
        _, read = traceio.read_trace_csv(path)
        assert cli._exactness_audit(tr, read) == {"ok": True, "mismatches": []}
        edited = {name: column.copy() for name, column in read.items()}
        edited["reward"][-11:] = np.nextafter(edited["reward"][-11:], np.inf)
        edited["cum_reward"][-1] += 1.0
        del edited["lambda_l1"]
        report = cli._exactness_audit(tr, edited)
        assert report == _one_shot_exactness(tr, edited)
        assert len(report["mismatches"]) == min(T, 10) + 2


def test_streamed_dominance_reports_the_first_ten_failures():
    inst = _instances(3 * ROUND_BLOCK)[0]
    tr = ob.run(inst, ob.default_config(inst))
    # Every round's candidate replaced by a worst action: all open rounds fail.
    values = rewards_stack(inst) - penalties(
        unified_stack(inst).transpose(1, 0, 2), tr.duals[:-1].T[:, :, None]
    )
    candidates = tr.candidates.copy()
    # from round ROUND_BLOCK - 2 on, the failures straddle the first block edge
    candidates[ROUND_BLOCK - 3 :] = values.argmin(axis=1)[ROUND_BLOCK - 3 :]
    damaged = dataclasses.replace(tr, candidates=candidates)
    report = dominance(damaged)
    assert report == _one_shot_dominance(damaged)
    assert report["failing_rounds"][0] == ROUND_BLOCK - 2 and len(report["failing_rounds"]) == 10


@pytest.mark.parametrize("T", [2_000, 64_000])
def test_streamed_routines_peak_bounded(tmp_path, T):
    model = ob.random_model(3, S=40, K=4, m=2, n=2, feasibility_margin=0.2)
    inst = ob.sample_instance(model, T, 1)
    tr = ob.run(inst, ob.default_config(inst))  # also caches inst.unified_rows
    header = {"schema_version": 1, "T": T, "config": "{}"}
    columns = trace_columns(tr)
    routines = {
        "instance_hash": lambda: ser.instance_hash(inst),
        "write_trace_csv": lambda: traceio.write_trace_csv(tmp_path / "t.csv", tr, header),
        "exactness_audit": lambda: cli._exactness_audit(tr, columns),
        "dominance_audit": lambda: dominance(tr),
    }
    for name, routine in routines.items():
        tracemalloc.start()
        try:
            routine()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_BOUND, (name, peak)


def test_trace_read_peak_near_the_parsed_table(tmp_path):
    """The reader streams the data lines into np.loadtxt and returns views
    of the parsed table, so one read peaks at about the table's size."""
    T = 16_000
    model = ob.random_model(3, S=40, K=4, m=2, n=2, feasibility_margin=0.2)
    inst = ob.sample_instance(model, T, 1)
    header = {"schema_version": 1, "T": T, "K": "-", "m": "-", "n": "-", "seed": 1, "eta": 0.05,
              "delta": 0.05, "rng": "-", "instance_hash": "-", "config": "{}"}
    path = tmp_path / "t.csv"
    traceio.write_trace_csv(path, ob.run(inst, OgdConfig(eta=0.05, delta=0.05)), header)
    tracemalloc.start()
    try:
        _, columns = traceio.read_trace_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 8 * T * len(columns)
    assert len(columns) == 10 and peak <= 1.5 * table, peak / table


def test_failing_chunk_leaves_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    ser.write_text_atomic(path, "old\n")

    def chunks():
        yield "new "
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        ser.write_text_atomic(path, chunks())
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    ser.write_text_atomic(path, iter(["new ", "text\n"]))
    assert path.read_text() == "new text\n"
