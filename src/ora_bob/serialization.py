"""JSON codec for instances, with strict-by-default schema checking.

Instance schema::

    { "T": int, "K": int, "m": int, "n": int, "void_index": int,
      "beta": [n reals],
      "rounds": [ { "f": [K], "g": [m][K], "h": [n][K] } x T ] }

Stochastic-model files replace "rounds" with "support" (same per-round shape)
plus "probs".  Unknown fields are rejected with a JSON-pointer path unless the
environment variable ORA_BOB_SCHEMA_STRICT is set to "0".  Floats are written
with Python's shortest round-trip representation, so save -> load reproduces
bit-identical matrices.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

import numpy as np

from .core import ActionSet, BudgetSpec, Instance

ENV_STRICT = "ORA_BOB_SCHEMA_STRICT"
SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Schema violation, carrying the JSON pointer of the offending node."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")


def strict_mode() -> bool:
    return os.environ.get(ENV_STRICT, "1") != "0"


def _check_keys(d: dict, required: tuple, optional: tuple, pointer: str):
    if not isinstance(d, dict):
        raise SchemaError(f"expected object, got {type(d).__name__}", pointer)
    for key in required:
        if key not in d:
            raise SchemaError(f"missing required field {key!r}", pointer)
    if strict_mode():
        allowed = set(required) | set(optional)
        for key in d:
            if key not in allowed:
                raise SchemaError("unknown field", f"{pointer}/{key}")


def _as_int(value, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected integer, got {value!r}", pointer)
    return value


def _as_real_list(value, length: int, pointer: str) -> list[float]:
    if not isinstance(value, list) or len(value) != length:
        raise SchemaError(f"expected list of {length} reals", pointer)
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"expected real, got {v!r}", f"{pointer}/{i}")
        try:
            out.append(float(v))
        except OverflowError:  # an integer literal beyond the float range
            raise SchemaError("integer too large for a float", f"{pointer}/{i}") from None
    return out


def rows_to_dicts(rows) -> list[dict]:
    """One ``{"f", "g", "h"}`` object per row of the (F, G, H) stacks."""
    return [{"f": f.tolist(), "g": g.tolist(), "h": h.tolist()} for f, g, h in zip(*rows)]


def rows_from_dicts(items: list, k: int, m: int, n: int, pointer: str):
    """The (F, G, H) stacks of the ``{"f", "g", "h"}`` objects ``items``,
    each checked against (k, m, n) and located as ``pointer/i``."""
    f, g, h = np.empty((len(items), k)), np.empty((len(items), m, k)), np.empty((len(items), n, k))
    for i, d in enumerate(items):
        at = f"{pointer}/{i}"
        _check_keys(d, ("f", "g", "h"), (), at)
        f[i] = _as_real_list(d["f"], k, f"{at}/f")
        for key, out in (("g", g[i]), ("h", h[i])):
            if not isinstance(d[key], list) or len(d[key]) != len(out):
                raise SchemaError(f"expected {len(out)} rows", f"{at}/{key}")
            for j, row in enumerate(d[key]):
                out[j] = _as_real_list(row, k, f"{at}/{key}/{j}")
    return f, g, h


def _header_to_dict(instance_like) -> dict:
    return {
        "T": instance_like.budget.horizon,
        "K": instance_like.actions.count,
        "m": instance_like.num_general,
        "n": instance_like.num_resources,
        "void_index": instance_like.actions.void_index,
        "beta": instance_like.budget.per_round_budget.tolist(),
    }


def instance_to_dict(instance: Instance) -> dict:
    d = _header_to_dict(instance)
    parts = rows_to_dicts(instance.rows)
    d["rounds"] = [parts[k] for k in instance.index.tolist()]
    return d


HEADER_KEYS = ("T", "K", "m", "n", "void_index", "beta")


def _header_from_dict(d: dict):
    t = _as_int(d["T"], "/T")
    k = _as_int(d["K"], "/K")
    m = _as_int(d["m"], "/m")
    n = _as_int(d["n"], "/n")
    void = _as_int(d["void_index"], "/void_index")
    beta = _as_real_list(d["beta"], n, "/beta")
    try:
        actions = ActionSet(count=k, void_index=void)
        budget = BudgetSpec(horizon=t, per_round_budget=beta)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return actions, budget, k, m, n


def dict_to_instance(d: dict) -> Instance:
    _check_keys(d, HEADER_KEYS + ("rounds",), (), "")
    actions, budget, k, m, n = _header_from_dict(d)
    rounds_raw = d["rounds"]
    if not isinstance(rounds_raw, list) or len(rounds_raw) != budget.horizon:
        raise SchemaError(f"expected {budget.horizon} rounds", "/rounds")
    rows = rows_from_dicts(rounds_raw, k, m, n, "/rounds")
    return Instance.from_rows(actions, budget, rows, np.arange(budget.horizon))


def parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"parse error at byte offset {exc.pos}: {exc.msg}", ""
        ) from exc
    except RecursionError:
        raise SchemaError("parse error: nested too deeply", "") from None


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _text_hash(text: str) -> str:
    return f"sha256:{hashlib.sha256(text.encode('utf-8')).hexdigest()}"


def content_hash(obj: Any) -> str:
    """Stable content hash of a JSON-serializable object."""
    return _text_hash(canonical_json(obj))


def instance_hash(instance: Instance) -> str:
    """``content_hash(instance_to_dict(instance))``, encoding each row once:
    a sampled instance's rounds are its model's few support rows.  The
    canonical text is spliced from those parts, so the hash is the same."""
    parts = [canonical_json(d) for d in rows_to_dicts(instance.rows)]
    parts = [parts[k] for k in instance.index.tolist()]
    header = canonical_json({**_header_to_dict(instance), "rounds": None})
    head, tail = header.split('"rounds":null')
    return _text_hash(f'{head}"rounds":[{",".join(parts)}]{tail}')


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=1, allow_nan=False) + "\n"
