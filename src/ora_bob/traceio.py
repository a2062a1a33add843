"""Trace CSV and JSON output: deterministic, shortest round-trip floats.

A trace file is `# key=value` header lines followed by one CSV row per
round.  The same column computation, a block of ROUND_BLOCK rounds at a
time, feeds the writer and the audit's exactness check, so any hand-edited
cell shows up as a bitwise mismatch against the deterministic re-run.  The
writer formats and writes a fixed slice of FORMAT_ROWS rows at a time,
through :func:`ora_bob.serialization.write_text_atomic`, the one
write-to-temp-then-rename routine, so the text it holds is one slice's.
The reader is header-first: :func:`read_trace_header` checks the header
and counts the data rows without parsing them, and
:func:`read_trace_blocks` parses them a block at a time, so the audit
never holds a trace's whole columns.
"""

from __future__ import annotations

import itertools
import re
import warnings
from typing import Iterator

import numpy as np

from . import rng
from .core import ROUND_BLOCK, Trajectory
from .serialization import dumps, write_text_atomic

#: The schema of every trace, cell JSON, sweep CSV and audit JSON.  Version 2
#: hashes an instance by its distinct rows and row index (serialization), so
#: the instance_hash of a version-1 file matches no instance any more.
SCHEMA_VERSION = 2

#: The header keys a trace has, as the writer writes them; the audit
#: refuses a trace that lacks one.
REQUIRED_HEADER_KEYS = (
    "schema_version", "T", "K", "m", "n", "eta", "delta", "seed", "rng", "instance_hash",
    "config",
)


#: Rows the trace writer formats into one chunk of text: a slice of a
#: column block, so the strings held at once do not grow with ROUND_BLOCK.
FORMAT_ROWS = 128


class TraceFormatError(ValueError):
    """A damaged trace file: a required header key is missing, a header
    value does not parse or contradicts the config, a row does not have one
    field per column, or a cell does not parse."""


def run_header(config: dict, source) -> dict:
    """The trace header lines, in file order, that a cell's ``config`` and
    its ``source`` (the instance or model) determine: the writer writes
    them, and the audit refuses a trace whose lines say otherwise."""
    return {"T": config.get("T"), "K": source.actions.count, "m": source.num_general,
            "n": source.num_resources, "eta": repr(config.get("eta")),
            "delta": repr(config.get("delta")), "seed": config.get("seed"), "rng": rng.ALGORITHM}


def header_value(path, header: dict, key: str, kind):
    """The header's ``key`` line parsed as ``kind`` (int or float)."""
    try:
        return kind(header[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise TraceFormatError(f"{path}: header {key} {header[key]!r} is not {noun}") from None


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


def _format_rows(columns: list[np.ndarray]) -> str:
    """The CSV rows of equal-length columns: integers as ``str``, floats as
    their shortest round-trip ``repr``."""
    cells = [list(map(str if a.dtype.kind in "iu" else repr, a.tolist())) for a in columns]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def write_trace_csv(path, trajectory: Trajectory, header: dict) -> None:
    """Write the trace atomically, FORMAT_ROWS rows formatted and written at
    a time."""

    def chunks():
        for i, cols in enumerate(trace_column_blocks(trajectory)):
            if not i:
                lines = [f"# {key}={value}" for key, value in header.items()]
                yield "\n".join(lines + [",".join(cols)]) + "\n"
            for lo in range(0, len(cols["t"]), FORMAT_ROWS):
                yield _format_rows([a[lo : lo + FORMAT_ROWS] for a in cols.values()])

    write_text_atomic(path, chunks())


def _read_header(fh, path) -> tuple[dict[str, str], list[str]]:
    """The ``# key=value`` lines of the trace open as ``fh`` and its column
    names, read up to the first data line; raises TraceFormatError when a
    REQUIRED_HEADER_KEYS entry or the column row is missing."""
    header: dict[str, str] = {}
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
    return header, line.rstrip("\n").split(",")


def read_trace_header(path) -> tuple[dict[str, str], int]:
    """The trace's header dict and its number of data rows, counted without
    parsing any: every line after the column row but the blank ones, which
    :func:`read_trace_blocks` skips too."""
    with open(path, "r", encoding="utf-8") as fh:
        header, _ = _read_header(fh, path)
        return header, sum(line != "\n" for line in fh)


def _row_width_error(fh, start: int, width: int) -> str | None:
    """The first non-empty data line of ``fh`` from offset ``start`` that
    does not have ``width`` fields, described; None if every one does."""
    fh.seek(start)
    rows = filter(None, (line.rstrip("\n") for line in fh))
    for k, row in enumerate(rows, start=1):
        if row.count(",") != width - 1:
            return f"data row {k} has {row.count(',') + 1} fields, expected {width}"
    return None


def read_trace_blocks(path) -> Iterator[dict[str, np.ndarray]]:
    """The trace's typed data columns, in file order, ROUND_BLOCK rows at a
    time (one empty block if it has no rows); the header is read as
    :func:`read_trace_header` reads it.

    Raises TraceFormatError when a data row's width differs from the column
    row's, or a cell does not parse as its column's type: int64 (strictly,
    as a base-10 integer) for the t/action/candidate/gate_open columns,
    float64 for the others.  Rows are numbered from the file's first data
    row, and a width error anywhere in the file is the one reported.
    """
    with open(path, "r", encoding="utf-8") as fh:
        _, names = _read_header(fh, path)
        int_columns = ("t", "action", "candidate", "gate_open")
        dtype = [(f"c{c}", np.int64 if name in int_columns else np.float64)
                 for c, name in enumerate(names)]
        start = fh.tell()
        rows = (line for line in fh if line != "\n")
        for lo in itertools.count(0, ROUND_BLOCK):
            # numpy < 2 parses an int cell such as "1.0" through float, with
            # only a DeprecationWarning; as an error it leaves every int cell
            # strict.
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                try:
                    table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None,
                                       ndmin=1, max_rows=ROUND_BLOCK)
                except (ValueError, OverflowError, DeprecationWarning) as exc:
                    # numpy numbers the rows of this block, and reports a
                    # width its own way
                    why = _row_width_error(fh, start, len(names)) or re.sub(
                        r"(.*at row )(\d+)", lambda m: f"{m[1]}{int(m[2]) + lo}", str(exc),
                        count=1, flags=re.S)
                    raise TraceFormatError(f"{path}: {why}") from None
            if lo and not len(table):
                return
            last = len(table) < ROUND_BLOCK
            block = {name: table[f"c{c}"] for c, name in enumerate(names)}
            # the next block is parsed while only the caller may hold this one
            del table
            yield block
            del block
            if last:
                return


def read_trace_csv(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """The trace's header dict and its whole columns: the blocks of
    :func:`read_trace_blocks` joined."""
    header, _ = read_trace_header(path)
    blocks = list(read_trace_blocks(path))
    return header, {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}


def write_json_atomic(path, payload) -> None:
    write_text_atomic(path, dumps(payload))
