"""Trace CSV and JSON output: deterministic, shortest round-trip floats.

A trace file is `# key=value` header lines followed by one CSV row per
round.  The same column computation, a block of ROUND_BLOCK rounds at a
time, feeds the writer and the audit's exactness check, so any hand-edited
cell shows up as a bitwise mismatch against the deterministic re-run.  The
writer formats and writes one block of rows at a time, through
:func:`ora_bob.serialization.write_text_atomic`, the one write-to-temp-then-
rename routine, so it never holds the whole file text.
"""

from __future__ import annotations

import warnings
from typing import Iterator

import numpy as np

from .core import ROUND_BLOCK, Trajectory
from .serialization import dumps, write_text_atomic

#: The schema of every trace, cell JSON, sweep CSV and audit JSON.  Version 2
#: hashes an instance by its compact form (serialization.hash_form), so the
#: instance_hash of a version-1 file matches no instance any more.
SCHEMA_VERSION = 2

#: The header keys a trace has, as the writer writes them; the audit
#: refuses a trace that lacks one.
REQUIRED_HEADER_KEYS = (
    "schema_version", "T", "K", "m", "n", "eta", "delta", "seed", "rng", "instance_hash",
    "config",
)


class TraceFormatError(ValueError):
    """A damaged trace file: a required header key is missing, a header
    value does not parse or contradicts the config, a row does not have one
    field per column, or a cell does not parse."""


def trace_column_blocks(trajectory: Trajectory) -> Iterator[dict[str, np.ndarray]]:
    """The per-round columns of the trace, in file order, one block of
    ROUND_BLOCK rounds at a time; the running columns are slices of the
    trajectory's own totals."""
    T = trajectory.horizon
    for lo in range(0, T, ROUND_BLOCK):
        hi = min(lo + ROUND_BLOCK, T)
        rounds = slice(lo, hi)
        cols: dict[str, np.ndarray] = {
            "t": np.arange(lo + 1, hi + 1, dtype=np.int64),
            "action": trajectory.actions[rounds],
            "candidate": trajectory.candidates[rounds],
            "gate_open": trajectory.gate_open[rounds].astype(np.int64),
            "reward": trajectory.rewards[rounds],
            "cum_reward": trajectory.cumulative_reward[rounds],
            "lambda_l1": trajectory.dual_l1[rounds],
            "max_general_violation_cum": (trajectory.cumulative_general[rounds].max(axis=1)
                                          if trajectory.num_general else np.zeros(hi - lo)),
        }
        for j in range(trajectory.num_resources):
            cols[f"cum_consumption_{j + 1}"] = trajectory.cumulative_consumption[rounds, j]
        yield cols


def _format_rows(cols: dict[str, np.ndarray]) -> str:
    """The CSV rows of a block of columns: integers as ``str``, floats as
    their shortest round-trip ``repr``."""
    cells = [list(map(str if a.dtype.kind in "iu" else repr, a.tolist())) for a in cols.values()]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def write_trace_csv(path, trajectory: Trajectory, header: dict) -> None:
    """Write the trace atomically, one block of ROUND_BLOCK rows formatted
    and written at a time."""

    def chunks():
        for i, cols in enumerate(trace_column_blocks(trajectory)):
            if not i:
                lines = [f"# {key}={value}" for key, value in header.items()]
                yield "\n".join(lines + [",".join(cols)]) + "\n"
            yield _format_rows(cols)

    write_text_atomic(path, chunks())


def _row_width_error(fh, start: int, width: int) -> str | None:
    """The first non-empty data line of ``fh`` from offset ``start`` that
    does not have ``width`` fields, described; None if every one does."""
    fh.seek(start)
    rows = filter(None, (line.rstrip("\n") for line in fh))
    for k, row in enumerate(rows, start=1):
        if row.count(",") != width - 1:
            return f"data row {k} has {row.count(',') + 1} fields, expected {width}"
    return None


def read_trace_csv(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Parse a trace file into its header dict and typed column arrays.

    Raises TraceFormatError when a REQUIRED_HEADER_KEYS entry is missing, a
    data row's width differs from the column row's, or a cell does not parse
    as its column's type: int64 (strictly, as a base-10 integer) for the
    t/action/candidate/gate_open columns, float64 for the others.  numpy
    parses the data lines from the file into one table; the columns are its views.
    """
    header: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key.strip()] = value
            line = fh.readline()
        missing = [key for key in REQUIRED_HEADER_KEYS if key not in header]
        if missing:
            raise TraceFormatError(f"{path}: trace header lacks {', '.join(missing)}")
        if not line:
            raise TraceFormatError(f"{path}: no column header row found")
        names = line.rstrip("\n").split(",")
        int_columns = ("t", "action", "candidate", "gate_open")
        dtype = [(f"c{c}", np.int64 if name in int_columns else np.float64)
                 for c, name in enumerate(names)]
        start = fh.tell()
        # numpy < 2 parses an int cell such as "1.0" through float, with only
        # a DeprecationWarning; as an error it leaves every int cell strict.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            except (ValueError, OverflowError, DeprecationWarning) as exc:
                # numpy's own width message numbers rows another way
                why = _row_width_error(fh, start, len(names)) or exc
                raise TraceFormatError(f"{path}: {why}") from None
    columns = {name: table[f"c{c}"] for c, name in enumerate(names)}
    return header, columns


def write_json_atomic(path, payload) -> None:
    write_text_atomic(path, dumps(payload))
