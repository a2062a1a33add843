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
from ora_bob.core import ROUND_BLOCK, ActionSet, BudgetSpec, Instance
from ora_bob.dual_ogd import OgdConfig, dominance, penalties
from rowstacks import hash_form, rewards_stack, trace_columns, unified_stack

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


def _header(T):
    """A trace header with every key the reader requires."""
    return {"schema_version": 1, "T": T, "K": "-", "m": "-", "n": "-", "seed": 0, "eta": 0.05,
            "delta": 0.05, "rng": "-", "instance_hash": "-", "config": "{}"}


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


def _edit_trace_text(path, header_lines):
    """Edit the trace CSV at ``path`` as text: its last eleven rewards each
    up by one ulp, its last cum_reward up by 1.0 and its lambda_l1 column
    deleted."""
    lines = path.read_text().splitlines()
    names = lines[header_lines].split(",")
    reward, cum, dual = (names.index(name) for name in ("reward", "cum_reward", "lambda_l1"))
    rows = [line.split(",") for line in lines[header_lines:]]
    for k, cells in enumerate(rows[1:], start=1):
        if k > len(rows) - 12:
            cells[reward] = repr(float(np.nextafter(float(cells[reward]), np.inf)))
        if k == len(rows) - 1:
            cells[cum] = repr(float(cells[cum]) + 1.0)
    for cells in rows:
        del cells[dual]
    path.write_text("\n".join(lines[:header_lines] + [",".join(c) for c in rows]) + "\n")


@pytest.mark.parametrize("T", BLOCK_EDGES)
def test_streamed_outputs_match_one_shot(tmp_path, T):
    header = _header(T)
    for k, inst in enumerate(_instances(T)):
        assert ser.instance_hash(inst) == ser.content_hash(hash_form(inst))
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
        blocks = traceio.read_trace_blocks(path)
        assert cli._exactness_audit(tr, blocks) == {"ok": True, "mismatches": []}
        # the last eleven rewards edited (across the block edge at
        # T = ROUND_BLOCK + 1), the last cum_reward edited and one column deleted
        _edit_trace_text(path, len(header))
        _, edited = traceio.read_trace_csv(path)
        assert "lambda_l1" not in edited
        report = cli._exactness_audit(tr, traceio.read_trace_blocks(path))
        assert report == _one_shot_exactness(tr, edited)
        assert len(report["mismatches"]) == min(T, 10) + 2


@pytest.mark.parametrize("row", [5, ROUND_BLOCK, 2 * ROUND_BLOCK + 7])
def test_block_parse_error_is_the_one_shot_error(tmp_path, row):
    """A cell that does not parse is reported as one np.loadtxt over all
    the data lines reports it: its row is numbered from the file's first
    data row, whichever block holds it."""
    T = 2 * ROUND_BLOCK + 100
    path = tmp_path / "t.csv"
    traceio.write_trace_csv(path, ob.run(_instances(T)[0], OgdConfig(eta=0.05, delta=0.05)),
                            _header(T))
    lines = path.read_text().splitlines()
    first = len(_header(T)) + 1
    cells = lines[first + row].split(",")
    cells[4] = "abc"  # the reward column
    lines[first + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    dtype = [(f"c{c}", np.int64 if c < 4 else np.float64) for c in range(len(cells))]
    with pytest.raises(ValueError) as one_shot:
        np.loadtxt(lines[first:], dtype=dtype, delimiter=",", comments=None)
    with pytest.raises(traceio.TraceFormatError) as streamed:
        list(traceio.read_trace_blocks(path))
    assert str(streamed.value) == f"{path}: {one_shot.value}"
    assert f"at row {row}," in str(streamed.value)


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
    trace_columns(tr)  # caches tr's running totals, as the run summary does before a write
    path = tmp_path / "t.csv"
    routines = {
        "instance_hash": lambda: ser.instance_hash(inst),
        "write_trace_csv": lambda: traceio.write_trace_csv(path, tr, _header(T)),
        "exactness_audit": lambda: cli._exactness_audit(tr, traceio.read_trace_blocks(path)),
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


def test_trace_writer_peak_is_one_slice_of_rows(tmp_path):
    """The writer formats FORMAT_ROWS rows at a time.  Formatting a whole
    ROUND_BLOCK of rows at once held about 1 MiB (its cells' repr strings,
    the row strings and their join); a slice of 128 rows holds about
    160 KiB, with the block's columns."""
    model = ob.random_model(3, S=40, K=4, m=2, n=2, feasibility_margin=0.2)
    inst = ob.sample_instance(model, 2000, 1)
    tr = ob.run(inst, ob.default_config(inst))
    trace_columns(tr)  # caches tr's running totals, as the run summary does before a write
    tracemalloc.start()
    try:
        traceio.write_trace_csv(tmp_path / "t.csv", tr, _header(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


@pytest.mark.parametrize("name", ["rewards", "unified_values"])
def test_trajectory_lookup_allocates_once(name):
    """A played-value lookup is its fancy-index gather, frozen: its first
    access peaks at its own size, where freezing a copy of the gather held
    both (2x)."""
    model = ob.random_model(3, S=40, K=4, m=2, n=2, feasibility_margin=0.2)
    inst = ob.sample_instance(model, 8000, 1)
    tr = ob.run(inst, ob.default_config(inst))
    tr.actions, inst.unified_rows  # the cached inputs of the gathers
    tracemalloc.start()
    try:
        values = getattr(tr, name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * values.nbytes, (peak, values.nbytes)
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert not values.flags.writeable


def test_signed_zero_cells_keep_their_text(tmp_path):
    """Rounds whose rewards are 0.0 and -0.0, in one slice of rows and
    across slice edges, are written as "0.0" and "-0.0"."""
    T = 2 * traceio.FORMAT_ROWS + 44
    rewards = np.array([[0.0], [-0.0]])
    inst = Instance(ActionSet(1, 0), BudgetSpec(T, []),
                    (rewards, np.zeros((2, 0, 1)), np.zeros((2, 0, 1))), np.arange(T) % 2)
    path = tmp_path / "t.csv"
    traceio.write_trace_csv(path, ob.run(inst, OgdConfig(eta=0.05)), _header(T))
    lines = path.read_text().splitlines()[len(_header(T)):]
    column = lines[0].split(",").index("reward")
    assert [row.split(",")[column] for row in lines[1:]] == ["0.0", "-0.0"] * (T // 2)


@pytest.mark.parametrize("T", [2_000, 64_000])
def test_trace_block_read_peaks_near_one_block(tmp_path, T):
    """The reader parses ROUND_BLOCK data lines at a time and keeps no
    earlier block, so a read whose caller drops each block peaks at about
    one block's table, whatever the horizon."""
    model = ob.random_model(3, S=40, K=4, m=2, n=2, feasibility_margin=0.2)
    inst = ob.sample_instance(model, T, 1)
    path = tmp_path / "t.csv"
    traceio.write_trace_csv(path, ob.run(inst, OgdConfig(eta=0.05, delta=0.05)), _header(T))
    tracemalloc.start()
    try:
        # map drops each block before it asks for the next
        shapes = list(map(lambda block: (len(block), len(block["t"])),
                          traceio.read_trace_blocks(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {width for width, _ in shapes} == {10} and sum(rows for _, rows in shapes) == T
    table = 8 * ROUND_BLOCK * 10
    assert peak < 1.5 * table, peak / table


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
