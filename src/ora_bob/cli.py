"""Batch experiment front end: run, sweep, oracle, audit, gen.

Every output embeds the fully resolved configuration and a content hash of
the instance it ran on; reruns of the same (config, seed) are byte-identical.
Exit codes: 0 success, 1 audit failures present, 2 usage or validation error
(with a machine-readable error JSON on stdout), 3 internal error (the
traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import environments, rng, serialization, traceio
# Nothing here calls run_allocator: the import stays only so the tracer's
# allocator hook resolves, until that hook moves (ROADMAP item 10).
from .allocator import default_eta, lane_key, run as run_allocator, run_lanes
from .core import ROUND_BLOCK, Instance, StochasticModel, Trajectory
from .dual_ogd import (
    DETERMINISTIC_AUDITS,
    OgdConfig,
    interval_regret_audit,
    sample_comparator_pairs,
)
from .environments import build_generator
from .metrics import run_summary
from .oracles import (
    SizeGuardError,
    alpha,
    opt_bruteforce,
    opt_lp_relax,
    opt_stoc_estimate,
    slater_adv,
    slater_stoc,
)
from .serialization import SchemaError, load_instance
from .simplex import SimplexError

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_AUDIT_SEED_SALT = 0xAD17

#: Most integers one --seeds or --T list may name, each one a cell, and
#: most comparator pairs (audit --pairs) or Monte Carlo samples (oracle
#: --num-samples) one command may request.
MAX_LIST_LENGTH = 100_000
#: Most lane-rounds one allocator batch plays in lockstep: a batch of horizon
#: T holds at most max(1, BATCH_LANE_ROUNDS // T) lanes (16 at T=2000), so its
#: memory is bounded whatever the seed count and horizon.
BATCH_LANE_ROUNDS = 32_768


class CliError(Exception):
    def __init__(self, message: str, **extra):
        self.extra = extra
        super().__init__(message)


def _parse_int_list(text: str) -> list[int]:
    """Comma lists ("1,2,3") and ranges ("0:30", end exclusive).

    The length is counted before anything is expanded, and a list longer
    than MAX_LIST_LENGTH is refused.
    """
    spans: list[tuple[int, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":", 1)
            spans.append((int(lo), int(hi)))
        else:
            spans.append((int(part), int(part) + 1))
    length = sum(max(0, hi - lo) for lo, hi in spans)
    if length > MAX_LIST_LENGTH:
        raise CliError(
            f"integer list {text!r} names {length} values, above the limit of "
            f"{MAX_LIST_LENGTH}",
            length=length,
            limit=MAX_LIST_LENGTH,
        )
    if not length:
        raise CliError(f"empty integer list: {text!r}")
    return [v for lo, hi in spans for v in range(lo, hi)]


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise CliError(f"--param expects key=value, got {pair!r}")
        key = key.strip()
        if key in params:
            raise CliError(f"--param {key!r} is given more than once", key=key)
        params[key] = value.strip()
    return params


def _resolve_source(args):
    if getattr(args, "instance", None):
        source_desc = {"path": str(args.instance)}
    elif getattr(args, "generator", None):
        params = _parse_params(getattr(args, "param", None))
        source_desc = {"generator": args.generator, "params": dict(sorted(params.items()))}
    else:
        raise CliError("either --instance or --generator is required")
    return source_desc, _load_source(source_desc)


def _load_source(source_desc):
    """The instance or model a source description names: a file path
    string, or a generator name with an object of string parameters."""
    if "path" in source_desc:
        path = source_desc["path"]
        if not isinstance(path, str):
            raise CliError(f"source path {path!r} is not a string")
        return load_instance(path)
    if "generator" in source_desc and "params" in source_desc:
        generator, params = source_desc["generator"], source_desc["params"]
        if not isinstance(generator, str):
            raise CliError(f"source generator {generator!r} is not a string")
        if not isinstance(params, dict) or not all(isinstance(v, str) for v in params.values()):
            raise CliError(f"source params {params!r} are not an object of strings")
        return build_generator(generator, params)
    raise CliError(f"source {source_desc!r} names neither a path nor a generator")


def _horizon(obj, T: int | None) -> int:
    if isinstance(obj, StochasticModel):
        return T if T is not None else obj.budget.horizon
    if T is not None and T != obj.horizon:
        raise CliError(
            f"--T {T} conflicts with the fixed instance horizon {obj.horizon}"
        )
    return obj.horizon


def _cell_instance(obj, T: int | None, seed: int) -> Instance:
    horizon = _horizon(obj, T)
    if isinstance(obj, StochasticModel):
        return environments.sample_instance(obj, horizon, seed)
    return obj


def _cell_settings(args, source_desc: dict) -> dict:
    """What every cell of a run or sweep command shares: the source, delta,
    the --eta override (None for the schedule) and the benchmark."""
    return {"source": source_desc, "delta": args.delta, "eta": args.eta,
            "benchmark": args.benchmark}


def cell_config(settings: dict, source, T: int, seed: int, name: str) -> dict:
    """The config a cell records in its trace header and summary JSON, and
    that a sweep's cells must match: the cell ``name`` at horizon ``T`` and
    ``seed`` under ``settings`` (see :func:`_cell_settings`), whose source
    is loaded as ``source``.  Its eta is the override, or else the schedule
    at T and the source's M (:func:`~ora_bob.allocator.default_eta`); the
    (eta, delta) pair is checked by building the allocator's OgdConfig."""
    eta, delta = settings["eta"], settings["delta"]
    ogd = OgdConfig(eta=eta if eta is not None else default_eta(T, source.num_constraints, delta),
                    delta=delta)
    return {
        "schema_version": traceio.SCHEMA_VERSION,
        "name": name,
        "source": settings["source"],
        "T": T,
        "delta": ogd.delta,
        "eta": ogd.eta,
        "eta_override": eta is not None,
        "seed": seed,
        "benchmark": settings["benchmark"],
    }


#: Each ``--benchmark``: the offline value of a cell's instance its summary compares with.
BENCHMARKS = {
    "none": lambda instance: None,
    "lp": lambda instance: opt_lp_relax(instance).opt_value,
    "bruteforce": lambda instance: opt_bruteforce(instance).opt_value,
}


def execute_cell(config: dict, out_dir: str, trajectory: Trajectory) -> str:
    """Write one cell's trace CSV and summary JSON.

    ``config`` is the cell's :func:`cell_config` and ``trajectory`` its
    allocator run on its instance (see :func:`execute_cells`).  Returns the
    summary JSON path.  Pure function of its arguments, so cells can run in
    parallel processes and reruns are byte-identical.
    """
    instance = trajectory.instance
    M = instance.num_constraints
    rho = slater_adv(instance) if M else None
    opt_val = BENCHMARKS[config["benchmark"]](instance)
    summary = run_summary(trajectory, rho=rho, benchmark=opt_val)

    ihash = serialization.instance_hash(instance)
    header = {
        "schema_version": traceio.SCHEMA_VERSION,
        **traceio.run_header(config, instance),
        "instance_hash": ihash,
        "config": serialization.canonical_json(config),
    }
    base = os.path.join(out_dir, f"{config['name']}_{config['seed']}")
    traceio.write_trace_csv(f"{base}.csv", trajectory, header)
    payload = {
        "schema_version": traceio.SCHEMA_VERSION,
        "config": config,
        "instance_hash": ihash,
        "rho_adv": rho,
        "benchmark_value": opt_val,
        "summary": summary,
    }
    traceio.write_json_atomic(f"{base}.json", payload)
    return f"{base}.json"


def execute_cells(configs: list[dict], source, out_dir: str) -> list[str]:
    """One lockstep batch of cells on ``source``, which share T, eta and
    delta: their instances play as the lanes of one run_lanes call, then
    :func:`execute_cell` writes each.  Returns the summary JSON paths in
    the order of ``configs``."""
    horizon = configs[0]["T"]
    ogd = OgdConfig(eta=configs[0]["eta"], delta=configs[0]["delta"])
    instances = [_cell_instance(source, horizon, config["seed"]) for config in configs]
    return [execute_cell(config, out_dir, trajectory)
            for config, trajectory in zip(configs, run_lanes(instances, ogd))]


def _lockstep_batches(items: list, horizon: int, jobs: int = 1) -> list[list]:
    """``items``, lanes of horizon ``horizon``, cut into contiguous lockstep
    batches of at most BATCH_LANE_ROUNDS lane-rounds (one lane at least),
    and into at least ``jobs`` batches when there are that many items."""
    size = max(1, min(BATCH_LANE_ROUNDS // horizon, len(items) // max(jobs, 1)))
    return [items[lo : lo + size] for lo in range(0, len(items), size)]


def _cell_batches(args, source_desc: dict, source, T, name: str, seeds: list[int]) -> list:
    """The :func:`cell_config` of each of ``seeds`` on one (source, T), cut
    into the lockstep batches :func:`_run_cells` plays."""
    settings, horizon = _cell_settings(args, source_desc), _horizon(source, T)
    configs = [cell_config(settings, source, horizon, seed, name) for seed in seeds]
    return _lockstep_batches(configs, horizon, args.jobs)


def _run_cells(batches: list[list[dict]], source, args) -> list[str]:
    """Play and write each batch on ``source`` into ``args.out``, each batch
    one task of ``args.jobs`` worker processes."""
    os.makedirs(args.out, exist_ok=True)
    task = functools.partial(execute_cells, source=source, out_dir=args.out)
    if args.jobs <= 1 or len(batches) <= 1:
        written = list(map(task, batches))
    else:
        # imported only here: --jobs > 1 alone needs it, and it slows start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(batches))) as pool:
            written = list(pool.map(task, batches))
    return [path for paths in written for path in paths]


def cmd_run(args) -> int:
    source_desc, obj = _resolve_source(args)
    seeds = _parse_int_list(args.seeds)
    written = _run_cells(_cell_batches(args, source_desc, obj, args.T, args.name, seeds),
                         obj, args)
    print(json.dumps({"written": written}, indent=1))
    return EXIT_OK


#: What a sweep row reads from a cell's summary: (sweep-CSV column, or the
#: label of a pass_flags entry; the summary field; its kind).  A "number" is
#: a finite real, a "nullable" one may also be null, and a "flag" is true,
#: false or null (null flags are left out of pass_flags).  A bound the cell
#: did not check reads as null.
_CELL_FIELDS = (
    ("reward", "total_reward", "number"),
    ("violation", "violation", "number"),
    ("tau", "tau", "number"),
    ("max_dual_l1", "max_dual_l1", "number"),
    ("regret", "regret", "nullable"),
    ("alpha_regret", "alpha_regret", "nullable"),
    ("bound_violation", "bounds.violation.value", "nullable"),
    ("bound_regret", "bounds.regret.value", "nullable"),
    ("bound_dual", "bounds.dual_norm.value", "nullable"),
    ("budget", "budget_feasible", "flag"),
    ("drift", "bounds.drift.satisfied", "flag"),
    ("dual_norm", "bounds.dual_norm.satisfied", "flag"),
    ("violation", "bounds.violation.satisfied", "flag"),
    ("regret", "bounds.regret.satisfied", "flag"),
)
SWEEP_COLUMNS = (
    "T", "seed", *(name for name, _, kind in _CELL_FIELDS if kind != "flag"), "pass_flags"
)


def _finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _sweep_row(path: str, T: int, seed: int, payload: dict) -> dict:
    """The sweep CSV row of the cell at ``path``, read by ``_CELL_FIELDS``;
    raises CliError unless every field it reads is of its kind.  JSON
    parsing accepts NaN and +-Infinity literals, so finiteness is checked
    here."""
    summary = payload["summary"]
    row = {"T": T, "seed": seed}
    flags = []
    for name, field, kind in _CELL_FIELDS:
        key, *bound = field.split(".")
        value = summary[key]
        if bound:
            check, entry = bound
            value = value[check][entry] if check in value else None
        if kind == "flag":
            valid, expected = value is None or isinstance(value, bool), "true, false or null"
        else:
            valid = _finite_real(value) or (value is None and kind == "nullable")
            expected = "a finite number"
        if not valid:
            raise CliError(
                f"damaged sweep cell {path}: field {field!r} is {value!r}, not {expected}",
                path=path,
                field=field,
            )
        if kind != "flag":
            row[name] = value
        elif value is not None:
            flags.append(f"{name}={'ok' if value else 'FAIL'}")
    row["pass_flags"] = ";".join(flags)
    return row


def _csv_cell(v) -> str:
    return "" if v is None else repr(v) if isinstance(v, float) else str(v)


def _fit_loglog_slope(ts: list[int], means: list[float]) -> float | None:
    """Least-squares slope of log(mean) on log(T); None unless every mean is
    positive and there are at least 2 distinct horizons."""
    if len(set(ts)) < 2 or any(not v > 0.0 for v in means):
        return None
    x = np.log(np.asarray(ts, dtype=np.float64))
    y = np.log(np.asarray(means, dtype=np.float64))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def aggregate_sweep(
    out_dir: str,
    name: str,
    t_values: list[int],
    seeds: list[int],
    sweep_config: dict,
    source,
) -> dict:
    """Aggregate per-cell JSONs (read back from disk) into the sweep CSV and
    log-log fits.  Refuses to aggregate while any cell file is missing, is
    of schema_version 1 or lacks a field the sweep row needs, or any cell's
    config differs from the :func:`cell_config` of ``sweep_config`` on
    ``source`` at its (T, seed)."""
    rows = []
    cell_hashes = []
    for T in t_values:
        for seed in seeds:
            path = os.path.join(out_dir, f"{name}_T{T}_{seed}.json")
            if not os.path.exists(path):
                raise CliError(f"sweep incomplete: missing cell output {path}", path=path)
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            try:
                payload = serialization.parse_json(text)
            except SchemaError as exc:
                raise CliError(f"damaged sweep cell {path}: {exc}", path=path) from None
            fields = payload if isinstance(payload, dict) else {}
            _refuse_schema_1(path, fields.get("schema_version"))
            config = fields.get("config")
            want = cell_config(sweep_config, source, T, seed, f"{name}_T{T}")
            stale = [key for key, value in want.items()
                     if not isinstance(config, dict) or config.get(key) != value]
            if stale:
                raise CliError(
                    f"stale sweep cell {path}: {', '.join(stale)} differ from "
                    "the requested sweep; rerun it without --aggregate-only",
                    path=path,
                    fields=stale,
                )
            try:
                rows.append(_sweep_row(path, T, seed, payload))
                cell_hashes.append(payload["instance_hash"])
            except (KeyError, TypeError) as exc:
                field = exc.args[0] if isinstance(exc, KeyError) else None
                problem = f"missing field {field!r}" if field else str(exc)
                raise CliError(
                    f"damaged sweep cell {path}: {problem}", path=path, field=field
                ) from None

    lines = [
        f"# schema_version={traceio.SCHEMA_VERSION}",
        f"# config={serialization.canonical_json(sweep_config)}",
        f"# cells_hash={serialization.content_hash(cell_hashes)}",
        ",".join(SWEEP_COLUMNS),
    ]
    lines += [",".join(_csv_cell(row[col]) for col in SWEEP_COLUMNS) for row in rows]
    csv_path = os.path.join(out_dir, f"{name}_sweep.csv")
    serialization.write_text_atomic(csv_path, "\n".join(lines) + "\n")

    mean_violation_pos = []
    mean_regret = []
    for T in t_values:
        vs = [max(r["violation"], 0.0) for r in rows if r["T"] == T]
        mean_violation_pos.append(float(np.mean(vs)))
        rg = [r["regret"] for r in rows if r["T"] == T and r["regret"] is not None]
        mean_regret.append(float(np.mean(rg)) if rg else None)
    fit = {
        "T": t_values,
        "mean_violation_positive_part": mean_violation_pos,
        "mean_regret": mean_regret,
        "slope_violation": _fit_loglog_slope(t_values, mean_violation_pos),
        "slope_regret": (
            _fit_loglog_slope(t_values, [v for v in mean_regret])
            if all(v is not None for v in mean_regret)
            else None
        ),
    }
    traceio.write_json_atomic(os.path.join(out_dir, f"{name}_sweep_fit.json"), fit)
    return {"csv": csv_path, "fit": fit, "cells": len(rows)}


def cmd_sweep(args) -> int:
    source_desc, obj = _resolve_source(args)
    t_values = _parse_int_list(args.T)
    seeds = _parse_int_list(args.seeds)
    # every cell's config is built, and so checked, before anything is written
    batches = [batch for T in t_values
               for batch in _cell_batches(args, source_desc, obj, T, f"{args.name}_T{T}", seeds)]
    if not args.aggregate_only:
        _run_cells(batches, obj, args)
    sweep_config = {"schema_version": traceio.SCHEMA_VERSION, "name": args.name,
                    "T": t_values, "seeds": seeds, **_cell_settings(args, source_desc)}
    result = aggregate_sweep(args.out, args.name, t_values, seeds, sweep_config, obj)
    print(json.dumps({"sweep": result["csv"], "fit": result["fit"]}, indent=1))
    return EXIT_OK


def _slater_report(source, oracle) -> dict:
    """rho = ``oracle(source)`` and alpha(rho); not applicable to a source
    with no constraints."""
    if not source.num_constraints:
        return {"status": "not_applicable"}
    rho = oracle(source)
    return {"rho": rho, "alpha": alpha(max(rho, 0.0))}


def _opt_stoc_report(model, args) -> dict:
    if args.T is None:
        if args.which != "all":
            raise CliError("opt_stoc needs --T")
        return {"skipped": "needs --T"}
    return opt_stoc_estimate(model, args.T, args.num_samples, args.seed).to_dict()


#: Each ``--which`` oracle: the source kind it applies to and its report on
#: a source under the command's arguments.
ORACLES = {
    "opt_bruteforce": ("instance", lambda obj, args: opt_bruteforce(obj).to_dict()),
    "opt_lp": ("instance", lambda obj, args: opt_lp_relax(obj).to_dict()),
    "slater_adv": ("instance", lambda obj, args: _slater_report(obj, slater_adv)),
    "slater_stoc": ("stochastic model", lambda obj, args: _slater_report(obj, slater_stoc)),
    "opt_stoc": ("stochastic model", _opt_stoc_report),
}


def cmd_oracle(args) -> int:
    """Each oracle ``--which`` names, or with ``all`` each that applies to
    the source; under ``all`` an oracle refused by its size guard is
    reported skipped.  As in ``run``, ``--T`` on an instance source must be
    its horizon, and the source is validated at the horizon the command
    uses: an instance's own, or a model's ``--T`` (else its stored one)."""
    if args.num_samples > MAX_LIST_LENGTH:
        raise CliError(f"--num-samples must be at most {MAX_LIST_LENGTH}, got {args.num_samples}")
    _, obj = _resolve_source(args)
    horizon = _horizon(obj, args.T)
    kind = "instance" if isinstance(obj, Instance) else "stochastic model"
    (obj.validate() if kind == "instance" else obj.validate(horizon)).raise_if_invalid()
    applicable = [name for name, (applies_to, _) in ORACLES.items() if applies_to == kind]
    if args.which != "all" and args.which not in applicable:
        raise CliError(
            f"oracle {args.which} does not apply to the {kind} source; "
            f"it takes {', '.join(applicable)} or all"
        )
    reports: dict[str, dict] = {}
    for name in applicable if args.which == "all" else [args.which]:
        try:
            reports[name] = ORACLES[name][1](obj, args)
        except SizeGuardError as exc:
            if args.which != "all":
                raise
            reports[name] = {"skipped": str(exc)}
    print(json.dumps({"reports": reports}, indent=1))
    return EXIT_OK


def cmd_gen(args) -> int:
    payload = serialization.to_dict(build_generator(args.generator, _parse_params(args.param)))
    serialization.write_text_atomic(args.out, serialization.dumps(payload))
    print(
        json.dumps(
            {"written": str(args.out), "kind": "instance" if "rounds" in payload else "model",
             "hash": serialization.content_hash(payload)},
            indent=1,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


def _exactness_audit(trajectory, blocks) -> dict:
    """Whether the read trace equals the re-run bit for bit, compared one
    block of ROUND_BLOCK rounds at a time: each of ``blocks``, the trace's
    parsed blocks (:func:`~ora_bob.traceio.read_trace_blocks`) of T rows in
    all, with the block the writer computes.  Per column, in file order:
    ``missing`` if it is absent, else its first ten mismatching rounds,
    1-based."""
    T = trajectory.horizon
    found: dict[str, list] = {}  # column -> mismatching rounds, or [None] if missing
    for lo, block, read_block in zip(range(0, T, ROUND_BLOCK),
                                     traceio.trace_column_blocks(trajectory), blocks):
        for name, expected in block.items():
            read = read_block.get(name)
            if read is None:
                found[name] = [None]
            elif len(rounds := found.setdefault(name, [])) < 10:
                bad = np.flatnonzero(read != expected)
                rounds += (bad[: 10 - len(rounds)] + lo + 1).tolist()
    mismatches = [
        {"column": name, "round": r, "reason": "missing" if r is None else "mismatch"}
        for name, rounds in found.items() for r in rounds
    ]
    return {"ok": not mismatches, "mismatches": mismatches}


def _refuse_schema_1(path, version) -> None:
    """Refuse a file of schema_version 1 by name: its instance_hash is the
    hash version 2 replaced, so no instance matches it and the file must be
    re-run, not audited or aggregated."""
    if version == 1 and type(version) is int:
        raise CliError(f"{path}: schema_version 1 predates the instance-hash change of "
                       "schema_version 2; re-run it to audit or aggregate it", path=path)


def _read_trace(path, instance_override, loaded: dict) -> tuple:
    """Read the header of the trace at ``path`` and resolve the instance it
    ran on from its config's source, or ``instance_override`` in its place;
    ``loaded`` keeps the sources loaded so far by key, so a command loads
    each distinct one once.  Returns (seed, instance, config, source key);
    raises unless the trace is of this schema_version, has T data rows, the
    header lines are those :func:`~ora_bob.traceio.run_header` gives for
    its config and source, and the instance has the hash the trace records.  No cell is
    parsed."""
    header, rows = traceio.read_trace_header(path)
    version = traceio.header_value(path, header, "schema_version", int)
    _refuse_schema_1(path, version)
    if version != traceio.SCHEMA_VERSION:
        raise CliError(
            f"{path}: trace schema_version {header['schema_version']!r} "
            f"does not match {traceio.SCHEMA_VERSION}"
        )
    try:
        config = serialization.parse_json(header["config"])
    except SchemaError as exc:
        raise traceio.TraceFormatError(f"{path}: config header: {exc}") from None
    if not isinstance(config, dict) or not isinstance(config.get("source"), dict):
        raise traceio.TraceFormatError(f"{path}: the config header names no source")
    seed, T = (traceio.header_value(path, header, key, int) for key in ("seed", "T"))
    eta, delta = (traceio.header_value(path, header, key, float) for key in ("eta", "delta"))
    # T sizes the instance sampled below, so it must match the file first.
    if rows != T:
        raise traceio.TraceFormatError(f"{path}: {rows} data rows, but the header says T={T}")

    source = config["source"] if instance_override is None else {"path": str(instance_override)}
    key = serialization.canonical_json(source)
    if key not in loaded:
        loaded[key] = _load_source(source)
    expected = traceio.run_header(config, loaded[key])
    stale = [f"{k}={header[k]} (expected {v})" for k, v in expected.items() if header[k] != str(v)]
    if stale:
        raise traceio.TraceFormatError(
            f"{path}: header contradicts its config or source: {', '.join(stale)}")
    instance = _cell_instance(loaded[key], T, seed)
    ihash = serialization.instance_hash(instance)
    if ihash != header["instance_hash"]:
        raise CliError(
            f"{path}: instance hash mismatch (trace {header['instance_hash']}, "
            f"resolved {ihash}); refusing to audit"
        )
    return seed, instance, OgdConfig(eta=eta, delta=delta), key


def audit_trace(path, seed: int, blocks, trajectory, pairs: int) -> dict:
    """Audit the trace at ``path``, parsed as ``blocks``, against
    ``trajectory``, the re-run of its instance under its config; the
    ``pairs`` comparator pairs derive from the trace's ``seed``."""
    audits = {audit.__name__: audit(trajectory) for audit in DETERMINISTIC_AUDITS}
    exactness = _exactness_audit(trajectory, blocks)

    pair_seed = rng.derive_seed(seed, _AUDIT_SEED_SALT)
    records = [interval_regret_audit(trajectory, mu, t1, t2)
               for mu, t1, t2 in sample_comparator_pairs(trajectory, pairs, pair_seed)]
    failures = sum(not record["holds"] for record in records)

    checks = [exactness["ok"]] + [
        a["ok"] for a in audits.values() if a["ok"] is not None
    ]
    ok = all(checks) and failures == 0
    passed = sum(1 for c in checks if c) + (pairs - failures)
    failed = sum(1 for c in checks if not c) + failures
    return {
        "trace": str(path),
        "ok": ok,
        "passed": passed,
        "failed": failed,
        "exactness": exactness,
        "audits": audits,
        "interval_regret": {"pairs": records, "failures": failures},
    }


def _audit_batch(batch: list, loaded: dict, config: OgdConfig, pairs: int):
    """The report of each trace of one lockstep batch, in order: their
    instances are sampled again and play as the lanes of one run_lanes call,
    and a trace's cells are parsed a block at a time as its lane is
    audited."""
    instances = [_cell_instance(loaded[key], T, seed) for _, seed, key, T, _ in batch]
    for (path, seed, *_), trajectory in zip(batch, run_lanes(instances, config)):
        yield audit_trace(path, seed, traceio.read_trace_blocks(path), trajectory, pairs)


def _audit_reports(traces: list, loaded: dict, pairs: int):
    """The report of each of ``traces`` (see :func:`cmd_audit`), in order.
    Consecutive traces that share a lane key and a config are cut into
    lockstep batches (:func:`_lockstep_batches`), and no batch outlives its
    reports."""
    for (_, config), run in itertools.groupby(traces, key=lambda trace: trace[-1]):
        run = list(run)
        for batch in _lockstep_batches(run, run[0][3]):
            yield from _audit_batch(batch, loaded, config, pairs)


def cmd_audit(args) -> int:
    """Audit the traces in two passes, each in argument order.  The first
    checks every trace's header, source, row count and instance hash (see
    :func:`_read_trace`), and keeps no instance.  The second replays them
    (:func:`_audit_reports`) and writes each report as it is built: the JSON
    of ``json.dumps(payload, indent=1)``, with the top-level ``ok`` last.
    A damaged cell found in the second pass exits 2 and leaves no ``--out``
    file; without ``--out`` the JSON is printed once every trace is
    audited."""
    if not 0 <= args.pairs <= MAX_LIST_LENGTH:
        raise CliError(f"--pairs must be >= 0 and at most {MAX_LIST_LENGTH}, got {args.pairs}")
    loaded: dict = {}

    def checked(path) -> tuple:
        seed, instance, config, key = _read_trace(path, args.instance, loaded)
        # eta > 0 and delta in (0, 1) are finite and nonzero, so equal configs
        # are bitwise equal.
        return path, seed, key, instance.horizon, (lane_key(instance), config)

    traces = list(map(checked, args.traces))
    verdicts: list[bool] = []

    def chunks():
        yield f'{{\n "schema_version": {traceio.SCHEMA_VERSION},\n "traces": [\n  '
        for i, report in enumerate(_audit_reports(traces, loaded, args.pairs)):
            verdicts.append(report["ok"])
            # JSON text holds no raw newline inside a string
            yield (",\n  " if i else "") + json.dumps(report, indent=1).replace("\n", "\n  ")
        yield f'\n ],\n "ok": {json.dumps(all(verdicts))}\n}}\n'

    if args.out:
        serialization.write_text_atomic(args.out, chunks())
        print(json.dumps({"written": str(args.out), "ok": all(verdicts)}, indent=1))
    else:
        print("".join(chunks()), end="")
    return EXIT_OK if all(verdicts) else EXIT_AUDIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_source_args(p):
    p.add_argument("--instance", help="instance or model JSON file")
    p.add_argument("--generator", help="named generator")
    p.add_argument("--param", action="append", help="generator parameter key=value")


def _add_cell_args(p):
    """The options every run or sweep cell takes."""
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--eta", type=float, default=None, help="override the schedule")
    p.add_argument("--seeds", default="0")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--benchmark", choices=tuple(BENCHMARKS), default="none")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with the error JSON; subparsers share the class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ora-bob",
        description="Online resource allocation engine: runs, sweeps, oracles, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the allocator, one trajectory per seed")
    _add_source_args(p)
    _add_cell_args(p)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--name", default="run")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="cross product of --T and --seeds")
    _add_source_args(p)
    _add_cell_args(p)
    p.add_argument("--T", required=True, help="comma list of horizons")
    p.add_argument("--name", default="sweep")
    p.add_argument("--aggregate-only", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="offline oracle reports as JSON")
    _add_source_args(p)
    p.add_argument(
        "--which",
        choices=("all", *ORACLES),
        default="all",
    )
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--num-samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("audit", help="re-run and audit recorded traces")
    p.add_argument("traces", nargs="+")
    p.add_argument("--instance", default=None, help="override instance resolution")
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gen", help="write a generator's instance/model to a file")
    p.add_argument("--generator", required=True)
    p.add_argument("--param", action="append")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, SimplexError, OSError, ValueError, MemoryError) as exc:
        # ValueError covers the validation, schema, size-guard and trace
        # errors; MemoryError an input too large to hold (say, a huge --T)
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, CliError):
            payload["error"].update(exc.extra)
        filename = getattr(exc, "filename", None)
        if filename:
            payload["error"]["path"] = filename
        print(json.dumps(payload, indent=1))
        return EXIT_USAGE


def entrypoint() -> None:
    """The console script: :func:`main`, except that any other exception,
    an internal error, prints its traceback on stderr and exits 3, so a
    crash never reads as an audit verdict."""
    try:
        code = main()
    except Exception:
        import traceback  # imported only here: it enlarges every start-up

        traceback.print_exc()
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
