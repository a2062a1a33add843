"""Trace CSV and JSON output: deterministic, shortest round-trip floats.

A trace file is `# key=value` header lines followed by one CSV row per
round.  The same column computation feeds the writer and the audit's
exactness check, so any hand-edited cell shows up as a bitwise mismatch
against the deterministic re-run.  Files are written through
:func:`ora_bob.serialization.write_text_atomic`, the one write-to-temp-then-
rename routine.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import Trajectory
from .serialization import dumps, write_text_atomic

SCHEMA_VERSION = 1

#: Header keys the audit needs to re-derive a run.
REQUIRED_HEADER_KEYS = (
    "schema_version", "T", "seed", "eta", "delta", "instance_hash", "config",
)


class TraceFormatError(ValueError):
    """A damaged trace file: a required header key is missing, a row does
    not have one field per column, or a cell does not parse."""


def trace_columns(trajectory: Trajectory) -> dict[str, np.ndarray]:
    """The per-round columns of the trace, in file order."""
    T = trajectory.horizon
    m = trajectory.num_general
    cols: dict[str, np.ndarray] = {
        "t": np.arange(1, T + 1, dtype=np.int64),
        "action": trajectory.actions,
        "candidate": trajectory.candidates,
        "gate_open": trajectory.gate_open.astype(np.int64),
        "reward": trajectory.rewards,
        "cum_reward": np.cumsum(trajectory.rewards),
        "lambda_l1": np.abs(trajectory.duals[:-1]).sum(axis=1),
    }
    if m:
        running = np.cumsum(trajectory.unified_values[:, :m], axis=0)
        cols["max_general_violation_cum"] = running.max(axis=1)
    else:
        cols["max_general_violation_cum"] = np.zeros(T)
    for j in range(trajectory.num_resources):
        cols[f"cum_consumption_{j + 1}"] = trajectory.cumulative_consumption[:, j]
    return cols


def write_trace_csv(path, trajectory: Trajectory, header: dict) -> None:
    """Write the trace atomically, one whole column formatted at a time:
    integers as ``str``, floats as their shortest round-trip ``repr``."""
    cols = trace_columns(trajectory)
    lines = [f"# {key}={value}" for key, value in header.items()]
    lines.append(",".join(cols))
    cells = [
        list(map(str if a.dtype.kind in "iu" else repr, a.tolist()))
        for a in cols.values()
    ]
    lines.extend(map(",".join, zip(*cells)))
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_trace_csv(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Parse a trace file into its header dict and typed column arrays.

    Raises TraceFormatError when a REQUIRED_HEADER_KEYS entry is missing, a
    data row's width differs from the column row's, or a cell does not parse
    as its column's type: int64 (strictly, as a base-10 integer) for the
    t/action/candidate/gate_open columns, float64 for the others.
    """
    header: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i][1:].strip()
        key, _, value = body.partition("=")
        header[key.strip()] = value
        i += 1
    missing = [key for key in REQUIRED_HEADER_KEYS if key not in header]
    if missing:
        raise TraceFormatError(f"{path}: trace header lacks {', '.join(missing)}")
    if i >= len(lines):
        raise TraceFormatError(f"{path}: no column header row found")
    names = lines[i].split(",")
    rows = [line for line in lines[i + 1 :] if line]
    for k, row in enumerate(rows, start=1):
        if row.count(",") != len(names) - 1:
            raise TraceFormatError(
                f"{path}: data row {k} has {row.count(',') + 1} fields, expected {len(names)}"
            )
    int_columns = ("t", "action", "candidate", "gate_open")
    dtype = [(f"c{c}", np.int64 if name in int_columns else np.float64)
             for c, name in enumerate(names)]
    if rows:
        # numpy < 2 parses an int cell such as "1.0" through float, with only
        # a DeprecationWarning; as an error it leaves every int cell strict.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            try:
                table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            except (ValueError, OverflowError, DeprecationWarning) as exc:
                raise TraceFormatError(f"{path}: {exc}") from None
    else:
        table = np.empty(0, dtype=dtype)
    columns = {name: np.ascontiguousarray(table[f"c{c}"]) for c, name in enumerate(names)}
    return header, columns


def write_json_atomic(path, payload) -> None:
    write_text_atomic(path, dumps(payload))
