"""The instance and model file format: one JSON codec with strict schema
checking, load/save, canonical hashing and atomic writes.

Instance schema::

    { "T": int, "K": int, "m": int, "n": int, "void_index": int,
      "beta": [n reals],
      "rounds": [ { "f": [K], "g": [m][K], "h": [n][K] } x T ] }

Stochastic-model files replace "rounds" with "support" (same per-round shape)
plus "probs"; :func:`to_dict` and :func:`from_dict` are the one codec for
both.  Unknown fields are rejected with a JSON-pointer path.  Floats are
written with Python's shortest round-trip representation, so save -> load
reproduces bit-identical matrices.  An instance's hash streams its canonical
text to sha256 a block of rounds at a time, and :func:`write_text_atomic`,
the one write-to-temp-then-rename routine, takes the text as one string or
as chunks, so neither holds a whole T-round text.  sha256 is the built-in
one until a process has hashed OPENSSL_HASH_BYTES (see :func:`_sha256`).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
from typing import Any, Iterable

import numpy as np

from .core import (
    ROUND_BLOCK, ActionSet, BudgetSpec, Instance, StochasticModel, ValidationError,
)

OPENSSL_HASH_BYTES = 1 << 18
_BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
_hashed_bytes = 0  # by this process; it picks the provider, never the digest


class SchemaError(ValueError):
    """Schema violation, carrying the JSON pointer of the offending node."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")


def _check_keys(d: dict, required: tuple, pointer: str):
    if not isinstance(d, dict):
        raise SchemaError(f"expected object, got {type(d).__name__}", pointer)
    for key in required:
        if key not in d:
            raise SchemaError(f"missing required field {key!r}", pointer)
    for key in d:
        if key not in required:
            raise SchemaError("unknown field", f"{pointer}/{key}")


def _as_int(value, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected integer, got {value!r}", pointer)
    return value


def _as_count(value, pointer: str) -> int:
    count = _as_int(value, pointer)
    if count < 0:
        raise SchemaError(f"expected integer >= 0, got {count}", pointer)
    return count


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
        _check_keys(d, ("f", "g", "h"), at)
        f[i] = _as_real_list(d["f"], k, f"{at}/f")
        for key, out in (("g", g[i]), ("h", h[i])):
            if not isinstance(d[key], list) or len(d[key]) != len(out):
                raise SchemaError(f"expected {len(out)} rows", f"{at}/{key}")
            for j, row in enumerate(d[key]):
                out[j] = _as_real_list(row, k, f"{at}/{key}/{j}")
    return f, g, h


def _header(obj: Instance | StochasticModel) -> dict:
    return {
        "T": obj.budget.horizon,
        "K": obj.actions.count,
        "m": obj.num_general,
        "n": obj.num_resources,
        "void_index": obj.actions.void_index,
        "beta": obj.budget.per_round_budget.tolist(),
    }


def to_dict(obj: Instance | StochasticModel) -> dict:
    """The file form of an instance ("rounds") or a model ("support" and
    "probs")."""
    d = _header(obj)
    parts = rows_to_dicts(obj.rows)
    if isinstance(obj, Instance):
        d["rounds"] = [parts[k] for k in obj.index.tolist()]
    else:
        d["support"] = parts
        d["probs"] = obj.probs.tolist()
    return d


def from_dict(d: Any) -> Instance | StochasticModel:
    """The instance or model of a parsed file, told apart by "rounds" vs
    "support"; a schema violation raises SchemaError at its JSON pointer."""
    if not isinstance(d, dict):
        raise SchemaError(f"expected object, got {type(d).__name__}", "")
    rounds = "rounds" in d
    if rounds and "support" in d:
        raise SchemaError("file has both 'rounds' and 'support'", "")
    if not rounds and "support" not in d:
        raise SchemaError("file has neither 'rounds' nor 'support'", "")
    body = ("rounds",) if rounds else ("support", "probs")
    _check_keys(d, ("T", "K", "m", "n", "void_index", "beta") + body, "")
    t = _as_int(d["T"], "/T")
    k = _as_int(d["K"], "/K")
    m = _as_count(d["m"], "/m")
    n = _as_count(d["n"], "/n")
    void = _as_int(d["void_index"], "/void_index")
    beta = _as_real_list(d["beta"], n, "/beta")
    try:
        actions = ActionSet(count=k, void_index=void)
        budget = BudgetSpec(horizon=t, per_round_budget=beta)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    items = d[body[0]]
    if rounds:
        if not isinstance(items, list) or len(items) != t:
            raise SchemaError(f"expected {t} rounds", "/rounds")
        return Instance(actions, budget, rows_from_dicts(items, k, m, n, "/rounds"), np.arange(t))
    if not isinstance(items, list) or not items:
        raise SchemaError("expected nonempty list of support tuples", "/support")
    rows = rows_from_dicts(items, k, m, n, "/support")
    probs = _as_real_list(d["probs"], len(items), "/probs")
    try:
        return StochasticModel(actions, budget, rows, probs)
    except ValidationError as exc:
        raise SchemaError(str(exc), "/probs") from exc


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


def _sha256(nbytes: int):
    """sha256 for ``nbytes`` more bytes: the built-in one until this process has hashed
    OPENSSL_HASH_BYTES, as hashlib loads OpenSSL (ROADMAP); then, or lacking it, hashlib's."""
    global _hashed_bytes
    _hashed_bytes += nbytes
    if _hashed_bytes < OPENSSL_HASH_BYTES:
        with contextlib.suppress(ImportError):
            return importlib.import_module(_BUILTIN_SHA256).sha256
    return importlib.import_module("hashlib").sha256


def content_hash(obj: Any) -> str:
    """Stable content hash of a JSON-serializable object."""
    text = canonical_json(obj).encode("utf-8")
    return f"sha256:{_sha256(len(text))(text).hexdigest()}"


def instance_hash(instance: Instance) -> str:
    """``content_hash(to_dict(instance))``, encoding each row once:
    a sampled instance's rounds are its model's few support rows.  The
    canonical text is fed to sha256 one block of ROUND_BLOCK rounds at a
    time, so the hash is the same and the text is never held whole."""
    parts = [canonical_json(d).encode("utf-8") for d in rows_to_dicts(instance.rows)]
    header = canonical_json({**_header(instance), "rounds": None})
    head, tail = header.split('"rounds":null')
    index = instance.index
    nbytes = int(np.array([len(part) for part in parts], dtype=np.int64)[index].sum())
    digest = _sha256(nbytes)(f'{head}"rounds":['.encode("utf-8"))
    for lo in range(0, len(index), ROUND_BLOCK):
        if lo:
            digest.update(b",")
        digest.update(b",".join([parts[k] for k in index[lo : lo + ROUND_BLOCK].tolist()]))
    digest.update(f"]{tail}".encode("utf-8"))
    return f"sha256:{digest.hexdigest()}"


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=1, allow_nan=False) + "\n"


def write_text_atomic(path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of string chunks, to a temp
    file beside ``path``, then rename it over ``path``, so readers never see
    a partly written file.  If writing fails (say, a chunk raises), the temp
    file is removed and ``path`` is left as it was."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_instance(path) -> Instance | StochasticModel:
    """The instance or model in the JSON file at ``path`` (see
    :func:`from_dict`); a parse error is reported with its byte offset."""
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(parse_json(fh.read()))


def save_instance(obj: Instance | StochasticModel, path) -> None:
    """Write an instance or model; save -> load round-trips bit-exactly."""
    write_text_atomic(path, dumps(to_dict(obj)))
