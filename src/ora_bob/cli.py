"""Batch experiment front end: run, sweep, oracle, audit, gen.

Every output embeds the fully resolved configuration and a content hash of
the instance it ran on; reruns of the same (config, seed) are byte-identical.
Exit codes: 0 success, 1 audit failures present, 2 usage or validation error
(with a machine-readable error JSON on stdout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import environments, rng, serialization, traceio
# run_allocator is the name perfbench/tracer.py times the one-lane run under.
from .allocator import lane_key, run as run_allocator, run_lanes
from .core import Instance, StochasticModel, Trajectory
from .dual_ogd import (
    AUDIT_SLACK,
    DRIFT_SLACK,
    OgdConfig,
    dual_drift_audit,
    dual_penalty_audit,
    interval_regret_audit,
    learning_rate,
    sample_comparator_pairs,
)
from .environments import build_generator
from .lagrangian import penalties
from .metrics import budget_feasible, run_summary
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

_AUDIT_SEED_SALT = 0xAD17

#: Most integers one --seeds or --T list may name; each one is a cell.
MAX_LIST_LENGTH = 100_000
#: Most lane-rounds one allocator batch plays in lockstep: cells of horizon T
#: are batched max(1, BATCH_LANE_ROUNDS // T) at a time (16 at T=2000), so a
#: batch's memory is bounded whatever the seed count and horizon.
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
        params[key.strip()] = value.strip()
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


def execute_cell(
    source_desc: dict,
    instance: Instance,
    delta: float,
    eta_override: float | None,
    seed: int,
    benchmark: str,
    out_dir: str,
    name: str,
    trajectory: Trajectory,
) -> str:
    """Write one (config, seed) cell's trace CSV and summary JSON.

    ``instance`` is the cell's instance on the source ``source_desc``
    names, and ``trajectory`` its allocator run (see
    :func:`execute_cells`).  Returns the summary JSON path.  Pure function
    of its arguments, so cells can run in parallel processes and reruns are
    byte-identical.
    """
    horizon = instance.horizon
    M = instance.num_constraints
    eta = trajectory.eta

    rho = slater_adv(instance) if M else None
    opt_val = None
    if benchmark == "lp":
        opt_val = opt_lp_relax(instance).opt_value
    elif benchmark == "bruteforce":
        opt_val = opt_bruteforce(instance).opt_value
    summary = run_summary(trajectory, instance, rho=rho, benchmark=opt_val)

    resolved = {
        "schema_version": traceio.SCHEMA_VERSION,
        "name": name,
        "source": source_desc,
        "T": horizon,
        "delta": delta,
        "eta": eta,
        "eta_override": eta_override is not None,
        "seed": seed,
        "benchmark": benchmark,
    }
    ihash = serialization.instance_hash(instance)
    header = {
        "schema_version": traceio.SCHEMA_VERSION,
        "T": horizon,
        "K": instance.num_actions,
        "m": instance.num_general,
        "n": instance.num_resources,
        "eta": repr(eta),
        "delta": repr(delta),
        "seed": seed,
        "rng": rng.ALGORITHM,
        "instance_hash": ihash,
        "config": serialization.canonical_json(resolved),
    }
    base = os.path.join(out_dir, f"{name}_{seed}")
    traceio.write_trace_csv(f"{base}.csv", trajectory, header)
    payload = {
        "schema_version": traceio.SCHEMA_VERSION,
        "config": resolved,
        "instance_hash": ihash,
        "rho_adv": rho,
        "benchmark_value": opt_val,
        "summary": summary.to_dict(),
    }
    traceio.write_json_atomic(f"{base}.json", payload)
    return f"{base}.json"


def execute_cells(
    source_desc: dict,
    source,
    T: int | None,
    delta: float,
    eta_override: float | None,
    seeds: list[int],
    benchmark: str,
    out_dir: str,
    name: str,
) -> list[str]:
    """The cells of ``seeds`` on one source and T: the allocator plays their
    instances in lockstep batches (:func:`~ora_bob.allocator.run_lanes`, at
    most BATCH_LANE_ROUNDS lane-rounds each), then :func:`execute_cell`
    writes each, one at a time.  Returns the summary JSON paths in seed
    order."""
    horizon = _horizon(source, T)
    M = source.num_constraints
    eta = eta_override if eta_override is not None else learning_rate(horizon, M, delta)
    config = OgdConfig(eta=eta, delta=delta)
    lanes = max(1, BATCH_LANE_ROUNDS // horizon)
    written = []
    for lo in range(0, len(seeds), lanes):
        batch = seeds[lo : lo + lanes]
        instances = [_cell_instance(source, horizon, seed) for seed in batch]
        for seed, instance, trajectory in zip(batch, instances, run_lanes(instances, config)):
            written.append(
                execute_cell(
                    source_desc, instance, delta, eta_override, seed, benchmark,
                    out_dir, name, trajectory,
                )
            )
    return written


def _execute_cells_task(payload: dict) -> list[str]:
    return execute_cells(**payload)


def _cell_payloads(args, source_desc: dict, source, T, name: str, seeds: list[int]) -> list[dict]:
    """The cells of ``seeds`` on one (source, T) as ``args.jobs`` contiguous
    chunks of seeds, one :func:`execute_cells` payload each."""
    group = dict(
        source_desc=source_desc, source=source, T=T, delta=args.delta, eta_override=args.eta,
        benchmark=args.benchmark, out_dir=args.out, name=name,
    )
    k = max(1, min(args.jobs, len(seeds)))
    bounds = [len(seeds) * i // k for i in range(k + 1)]
    return [dict(group, seeds=seeds[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _run_cells(payloads: list[dict], jobs: int) -> list[str]:
    if jobs <= 1 or len(payloads) <= 1:
        chunks = [_execute_cells_task(p) for p in payloads]
    else:
        # imported only here: --jobs > 1 alone needs it, and it slows start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            chunks = list(pool.map(_execute_cells_task, payloads))
    return [path for chunk in chunks for path in chunk]


def _check_eta(args):
    if args.eta is not None and not args.eta > 0.0:
        raise CliError(f"--eta must be > 0, got {args.eta}")


def cmd_run(args) -> int:
    _check_eta(args)
    source_desc, obj = _resolve_source(args)
    seeds = _parse_int_list(args.seeds)
    os.makedirs(args.out, exist_ok=True)
    written = _run_cells(_cell_payloads(args, source_desc, obj, args.T, args.name, seeds), args.jobs)
    print(json.dumps({"written": written}, indent=1))
    return EXIT_OK


SWEEP_COLUMNS = (
    "T",
    "seed",
    "reward",
    "violation",
    "tau",
    "max_dual_l1",
    "regret",
    "alpha_regret",
    "bound_violation",
    "bound_regret",
    "bound_dual",
    "pass_flags",
)


def _sweep_row(path: str, T: int, seed: int, payload: dict) -> dict:
    """The sweep CSV row of the cell at ``path``; raises CliError unless the
    fields the fit reads are finite real numbers (regret may be null).  JSON
    parsing accepts NaN and +-Infinity literals, so finiteness is checked
    here."""
    s = payload["summary"]
    bounds = s["bounds"]
    for key in ("violation", "regret"):
        value = s[key]
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not ((real and math.isfinite(value)) or (value is None and key == "regret")):
            raise CliError(
                f"damaged sweep cell {path}: field {key!r} is {value!r}, not a finite number",
                path=path,
                field=key,
            )

    def bound_value(key):
        return bounds[key]["value"] if key in bounds else None

    flags = []
    if s["budget_feasible"] is not None:
        flags.append(f"budget={'ok' if s['budget_feasible'] else 'FAIL'}")
    for key in ("drift", "dual_norm", "violation", "regret"):
        if key in bounds and bounds[key]["satisfied"] is not None:
            flags.append(f"{key}={'ok' if bounds[key]['satisfied'] else 'FAIL'}")
    return {
        "T": T,
        "seed": seed,
        "reward": s["total_reward"],
        "violation": s["violation"],
        "tau": s["tau"],
        "max_dual_l1": s["max_dual_l1"],
        "regret": s["regret"],
        "alpha_regret": s["alpha_regret"],
        "bound_violation": bound_value("violation"),
        "bound_regret": bound_value("regret"),
        "bound_dual": bound_value("dual_norm"),
        "pass_flags": ";".join(flags),
    }


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


def _stale_fields(cell_config, sweep_config: dict, T: int, seed: int) -> list[str]:
    """The config fields in which a cell differs from the sweep cell (T, seed)."""
    eta = sweep_config["eta"]
    want = {
        "schema_version": sweep_config["schema_version"],
        "source": sweep_config["source"],
        "T": T,
        "seed": seed,
        "delta": sweep_config["delta"],
        "eta_override": eta is not None,
        "benchmark": sweep_config["benchmark"],
    }
    if eta is not None:
        want["eta"] = eta
    if not isinstance(cell_config, dict):
        return list(want)
    return [key for key, value in want.items() if cell_config.get(key) != value]


def aggregate_sweep(
    out_dir: str,
    name: str,
    t_values: list[int],
    seeds: list[int],
    sweep_config: dict,
) -> dict:
    """Aggregate per-cell JSONs (read back from disk) into the sweep CSV and
    log-log fits.  Refuses to aggregate while any cell file is missing or
    lacks a field the sweep row needs, or any cell was computed under
    another config than ``sweep_config``."""
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
            config = payload.get("config") if isinstance(payload, dict) else None
            stale = _stale_fields(config, sweep_config, T, seed)
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
    _check_eta(args)
    source_desc, obj = _resolve_source(args)
    t_values = _parse_int_list(args.T) if args.T else None
    if not t_values:
        raise CliError("sweep requires a nonempty --T list")
    if isinstance(obj, Instance) and any(t != obj.horizon for t in t_values):
        raise CliError("sweeping T requires a stochastic model source")
    seeds = _parse_int_list(args.seeds)
    os.makedirs(args.out, exist_ok=True)
    if not args.aggregate_only:
        payloads = []
        for T in t_values:
            payloads += _cell_payloads(args, source_desc, obj, T, f"{args.name}_T{T}", seeds)
        _run_cells(payloads, args.jobs)
    sweep_config = {
        "schema_version": traceio.SCHEMA_VERSION,
        "name": args.name,
        "source": source_desc,
        "T": t_values,
        "seeds": seeds,
        "delta": args.delta,
        "eta": args.eta,
        "benchmark": args.benchmark,
    }
    result = aggregate_sweep(args.out, args.name, t_values, seeds, sweep_config)
    print(json.dumps({"sweep": result["csv"], "fit": result["fit"]}, indent=1))
    return EXIT_OK


def _slater_report(source, oracle, *args) -> dict:
    """rho = ``oracle(source, *args)`` and alpha(rho); not applicable to a
    source with no constraints."""
    if not source.num_constraints:
        return {"status": "not_applicable"}
    rho = oracle(source, *args)
    return {"rho": rho, "alpha": alpha(max(rho, 0.0))}


#: The oracles that apply to each source kind, by ``--which`` name.
ORACLES_BY_KIND = {
    "instance": ("opt_bruteforce", "opt_lp", "slater_adv"),
    "stochastic model": ("slater_stoc", "opt_stoc"),
}


def cmd_oracle(args) -> int:
    _, obj = _resolve_source(args)
    which = args.which
    kind = "instance" if isinstance(obj, Instance) else "stochastic model"
    if which != "all" and which not in ORACLES_BY_KIND[kind]:
        raise CliError(
            f"oracle {which} does not apply to the {kind} source; "
            f"it takes {', '.join(ORACLES_BY_KIND[kind])} or all"
        )
    reports: dict[str, dict] = {}

    def attempt(key, fn):
        try:
            reports[key] = fn()
        except SizeGuardError as exc:
            if which == "all":
                reports[key] = {"skipped": str(exc)}
            else:
                raise

    if isinstance(obj, Instance):
        if which in ("all", "opt_bruteforce"):
            attempt("opt_bruteforce", lambda: opt_bruteforce(obj, args.guard).to_dict())
        if which in ("all", "opt_lp"):
            attempt("opt_lp", lambda: opt_lp_relax(obj).to_dict())
        if which in ("all", "slater_adv"):
            reports["slater_adv"] = _slater_report(obj, slater_adv)
    else:
        if which in ("all", "slater_stoc"):
            attempt("slater_stoc", lambda: _slater_report(obj, slater_stoc, args.guard))
        if which in ("all", "opt_stoc"):
            if args.T is None:
                if which != "all":
                    raise CliError("opt_stoc needs --T")
                reports["opt_stoc"] = {"skipped": "needs --T"}
            else:
                attempt(
                    "opt_stoc",
                    lambda: opt_stoc_estimate(
                        obj, args.T, args.num_samples, args.seed, args.guard
                    ).to_dict(),
                )
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


def _exactness_audit(trajectory, columns) -> dict:
    expected = traceio.trace_columns(trajectory)
    mismatches = []
    for name, arr in expected.items():
        rec = columns.get(name)
        if rec is None or rec.shape != arr.shape:
            mismatches.append({"column": name, "round": None, "reason": "missing"})
            continue
        bad = np.nonzero(rec != arr)[0]
        for i in bad[:10]:
            mismatches.append({"column": name, "round": int(i) + 1, "reason": "mismatch"})
    return {"ok": not mismatches, "mismatches": mismatches}


def _deterministic_audits(trajectory, instance) -> dict:
    audits: dict[str, dict] = {}
    tau = trajectory.stopping_time
    eta = trajectory.eta
    m, n = trajectory.num_general, trajectory.num_resources
    M = trajectory.num_constraints

    if n:
        final = trajectory.cumulative_consumption[-1]
        audits["budget_exactness"] = {
            "ok": budget_feasible(trajectory, instance),
            "final": final.tolist(),
            "limits": instance.budget.limits.tolist(),
        }
    else:
        audits["budget_exactness"] = {"ok": None, "status": "not_applicable"}

    drift = dual_drift_audit(trajectory)
    audits["dual_drift"] = {
        "ok": bool(drift <= eta * M + DRIFT_SLACK),
        "max_drift": drift,
        "bound": eta * M,
    }

    beta = instance.budget.per_round_budget
    penalty = dual_penalty_audit(trajectory, float(beta.min()) if n else None)
    audits["dual_penalty"] = {
        "ok": penalty.holds,
        "lhs": penalty.lhs,
        "rhs": penalty.rhs,
    }

    if m:
        sums = trajectory.unified_values[:tau, :m].sum(axis=0)
        caps = trajectory.duals[tau, :m] / eta
        audits["telescoped_violation"] = {
            "ok": bool(np.all(sums <= caps + AUDIT_SLACK)),
            "cumulative": sums.tolist(),
            "caps": caps.tolist(),
        }
    else:
        audits["telescoped_violation"] = {"ok": None, "status": "not_applicable"}

    values = instance.rewards_stack - penalties(
        instance.unified_stack.transpose(1, 0, 2), trajectory.duals[:-1].T[:, :, None]
    )
    chosen = values[np.arange(trajectory.horizon), trajectory.candidates]
    bad = np.flatnonzero(trajectory.gate_open & (chosen < values.max(axis=1)))
    audits["dominance"] = {"ok": not bad.size, "failing_rounds": (bad[:10] + 1).tolist()}

    post = slice(tau, trajectory.horizon)
    void = instance.actions.void_index
    post_void = bool(np.all(trajectory.actions[post] == void))
    post_mono = bool(
        np.all(trajectory.duals[tau + 1 :] <= trajectory.duals[tau:-1] + 0.0)
    )
    audits["post_stopping_time"] = {
        "ok": post_void and post_mono,
        "void_only": post_void,
        "duals_nonincreasing": post_mono,
    }
    return audits


def _read_trace(path, instance_override, loaded: dict) -> tuple:
    """Read the trace at ``path`` and resolve the instance it ran on from its
    config's source, or ``instance_override`` in its place; ``loaded`` keeps
    the sources loaded so far, so a command loads each distinct one once.
    Returns (seed, instance, config, columns); raises unless the instance
    has the hash the trace records."""
    header, columns = traceio.read_trace_csv(path)
    if int(header.get("schema_version", -1)) != traceio.SCHEMA_VERSION:
        raise CliError(
            f"{path}: trace schema_version {header.get('schema_version')!r} "
            f"does not match {traceio.SCHEMA_VERSION}"
        )
    try:
        config = serialization.parse_json(header["config"])
    except SchemaError as exc:
        raise traceio.TraceFormatError(f"{path}: config header: {exc}") from None
    if not isinstance(config, dict) or not isinstance(config.get("source"), dict):
        raise traceio.TraceFormatError(f"{path}: the config header names no source")
    seed = int(header["seed"])
    T = int(header["T"])
    eta = float(header["eta"])
    delta = float(header["delta"])
    # T sizes the instance sampled below, so it must match the file first.
    rows = len(next(iter(columns.values())))
    if rows != T:
        raise traceio.TraceFormatError(f"{path}: {rows} data rows, but the header says T={T}")

    source = config["source"] if instance_override is None else {"path": str(instance_override)}
    key = serialization.canonical_json(source)
    if key not in loaded:
        loaded[key] = _load_source(source)
    instance = _cell_instance(loaded[key], T, seed)
    ihash = serialization.instance_hash(instance)
    if ihash != header["instance_hash"]:
        raise CliError(
            f"{path}: instance hash mismatch (trace {header['instance_hash']}, "
            f"resolved {ihash}); refusing to audit"
        )
    return seed, instance, OgdConfig(eta=eta, delta=delta), columns


def audit_trace(path, seed: int, instance, columns, trajectory, pairs: int,
                audit_seed: int | None) -> dict:
    """Audit the trace at ``path``, read as ``columns``, against
    ``trajectory``, the re-run of its ``instance`` under its config."""
    audits = _deterministic_audits(trajectory, instance)
    exactness = _exactness_audit(trajectory, columns)

    pair_seed = audit_seed if audit_seed is not None else rng.derive_seed(seed, _AUDIT_SEED_SALT)
    records = []
    failures = 0
    for mu, t1, t2 in sample_comparator_pairs(trajectory, pairs, pair_seed):
        res = interval_regret_audit(trajectory, mu, t1, t2)
        records.append(
            {"t1": res.t1, "t2": res.t2, "mu": mu.tolist(),
             "lhs": res.lhs, "rhs": res.rhs, "holds": res.holds}
        )
        failures += 0 if res.holds else 1

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


def cmd_audit(args) -> int:
    """Read every trace, in argument order, then replay them: traces whose
    instances share a :func:`~ora_bob.allocator.lane_key` and whose configs
    are equal play as lanes of one run_lanes call (at most
    BATCH_LANE_ROUNDS lane-rounds each), and each lane is audited as it
    comes.  The reports keep the argument order."""
    if args.pairs < 0:
        raise CliError(f"--pairs must be >= 0, got {args.pairs}")
    loaded: dict = {}
    traces = [_read_trace(path, args.instance, loaded) for path in args.traces]
    seeds, instances, configs, columns = zip(*traces)
    # eta > 0 and delta in (0, 1) are finite and nonzero, so equal configs
    # are bitwise equal.
    groups: dict = {}
    for i, (instance, config) in enumerate(zip(instances, configs)):
        groups.setdefault((lane_key(instance), config), []).append(i)
    results: list = [None] * len(traces)
    for (_, config), members in groups.items():
        lanes = max(1, BATCH_LANE_ROUNDS // instances[members[0]].horizon)
        for lo in range(0, len(members), lanes):
            batch = members[lo : lo + lanes]
            replays = run_lanes([instances[i] for i in batch], config)
            for i, trajectory in zip(batch, replays):
                results[i] = audit_trace(
                    args.traces[i], seeds[i], instances[i], columns[i], trajectory,
                    args.pairs, args.audit_seed,
                )
    payload = {
        "schema_version": traceio.SCHEMA_VERSION,
        "traces": results,
        "ok": all(r["ok"] for r in results),
    }
    text = json.dumps(payload, indent=1)
    if args.out:
        serialization.write_text_atomic(args.out, text + "\n")
        print(json.dumps({"written": str(args.out), "ok": payload["ok"]}, indent=1))
    else:
        print(text)
    return EXIT_OK if payload["ok"] else EXIT_AUDIT_FAIL


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
    p.add_argument("--benchmark", choices=("none", "lp", "bruteforce"), default="none")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--T", default=None, help="comma list of horizons")
    p.add_argument("--name", default="sweep")
    p.add_argument("--aggregate-only", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="offline oracle reports as JSON")
    _add_source_args(p)
    p.add_argument(
        "--which",
        choices=("all", "opt_bruteforce", "opt_lp", "slater_adv", "slater_stoc", "opt_stoc"),
        default="all",
    )
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--num-samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--guard", type=int, default=10_000_000)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("audit", help="re-run and audit recorded traces")
    p.add_argument("traces", nargs="+")
    p.add_argument("--instance", default=None, help="override instance resolution")
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--audit-seed", type=int, default=None)
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
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
