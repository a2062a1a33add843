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
reproduces bit-identical matrices.

:func:`load_instance` packs each row object as the parser finishes it:
one whose keys are "f", "g", "h" in that order and whose cells are all
float literals, the rows of g and h as long as f, becomes a
:class:`_PackedRow`, its cells in one float64 buffer.  So at most one
row's Python floats are alive at a time, and a file never stands as a
tree of nested lists.  Any other object stays as parsed and goes through
the same checks, with the same messages, as a row of :func:`from_dict`.

An instance's hash (schema_version 2) is the :func:`content_hash` of its
compact canonical form: the header fields of :func:`to_dict`, ``"rows"``,
its stored rows as ``{"f", "g", "h"}`` objects, and ``"round_rows"``, its
row index.  An instance is stored in canonical form (its distinct played
rows, in order of first use), so the hash depends on the round sequence
only and encodes each distinct row once.  The index is
streamed to sha256 a block of rounds at a time, and
:func:`write_text_atomic`, the one write-to-temp-then-rename routine, takes
the text as one string or as chunks, so neither holds a T-long text.
sha256 is the built-in one for a text below OPENSSL_HASH_BYTES, unless
OpenSSL is already loaded (see :func:`_sha256`).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
from array import array
from typing import Any, Iterable

import numpy as np

from .core import (
    ROUND_BLOCK, ActionSet, BudgetSpec, Instance, StochasticModel, ValidationError,
)

#: The size of one text from which its hash repays loading OpenSSL, which
#: costs about 3 ms and 3.5 MiB: OpenSSL's sha256 hashes about 1,400 MB/s and
#: the built-in one about 250 (2-vCPU x86-64 VM), so they break even near 1 MB.
OPENSSL_HASH_BYTES = 1 << 20
_BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"


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


class _PackedRow:
    """A ``{"f", "g", "h"}`` row object of float cells as
    :func:`load_instance` parses it: f, then the m rows of g and the n rows
    of h, in one float64 buffer.  Its repr is that of the dict it was
    parsed from, so a misplaced row is reported as it would be unpacked."""

    __slots__ = ("values", "m", "n")

    def __init__(self, values: array, m: int, n: int):
        self.values, self.m, self.n = values, m, n

    def as_dict(self) -> dict:
        cells = self.values.tolist()
        k = len(cells) // (1 + self.m + self.n)
        rows = [cells[i : i + k] for i in range(k, len(cells), k)]
        return {"f": cells[:k], "g": rows[: self.m], "h": rows[self.m :]}

    def __repr__(self) -> str:
        return repr(self.as_dict())


def _pack_row(d: dict):
    """:func:`load_instance`'s ``object_hook``: ``d`` as a :class:`_PackedRow`
    when it has the keys "f", "g", "h", in that order, and float cells
    only, f not empty and each row of g and h as long as f; else ``d``
    itself.  A row with an integer literal is left unpacked, so a message
    that shows the row shows the literal as written."""
    if list(d) != ["f", "g", "h"]:
        return d
    f, g, h = d["f"], d["g"], d["h"]
    if not (type(f) is list and f and type(g) is list and type(h) is list):
        return d
    lists = [f, *g, *h]
    if not all(type(cells) is list and len(cells) == len(f)
               and all(type(v) is float for v in cells) for cells in lists):
        return d
    return _PackedRow(array("d", [v for cells in lists for v in cells]), len(g), len(h))


def rows_to_dicts(rows) -> list[dict]:
    """One ``{"f", "g", "h"}`` object per row of the (F, G, H) stacks."""
    return [{"f": f.tolist(), "g": g.tolist(), "h": h.tolist()} for f, g, h in zip(*rows)]


def rows_from_dicts(items: list, k: int, m: int, n: int, pointer: str):
    """The (F, G, H) stacks of the ``{"f", "g", "h"}`` objects ``items``,
    each checked against (k, m, n) and located as ``pointer/i``."""
    f, g, h = np.empty((len(items), k)), np.empty((len(items), m, k)), np.empty((len(items), n, k))
    for i, d in enumerate(items):
        if isinstance(d, _PackedRow):
            if (d.m, d.n, len(d.values)) == (m, n, (1 + m + n) * k):
                values = np.frombuffer(d.values)
                f[i] = values[:k]
                g[i] = values[k : (1 + m) * k].reshape(m, k)
                h[i] = values[(1 + m) * k :].reshape(n, k)
                continue
            d = d.as_dict()  # a shape the checks below report
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


def parse_json(text: str, object_hook=None) -> Any:
    try:
        return json.loads(text, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"parse error at byte offset {exc.pos}: {exc.msg}", ""
        ) from exc
    except RecursionError:
        raise SchemaError("parse error: nested too deeply", "") from None


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _sha256(nbytes: int):
    """sha256 for one text of ``nbytes`` bytes: the built-in one below
    OPENSSL_HASH_BYTES, as hashlib loads OpenSSL (ROADMAP); hashlib's for a
    larger text, once OpenSSL is loaded, or lacking a built-in one.  The
    provider never shows in a digest."""
    if nbytes < OPENSSL_HASH_BYTES and "_hashlib" not in sys.modules:
        with contextlib.suppress(ImportError):
            return importlib.import_module(_BUILTIN_SHA256).sha256
    return importlib.import_module("hashlib").sha256


def content_hash(obj: Any) -> str:
    """Stable content hash of a JSON-serializable object."""
    text = canonical_json(obj).encode("utf-8")
    return f"sha256:{_sha256(len(text))(text).hexdigest()}"


def instance_hash(instance: Instance) -> str:
    """The :func:`content_hash` of the instance's compact canonical form
    (see the module docstring): each distinct played row is encoded once,
    and ``"round_rows"`` is fed to sha256 one block of ROUND_BLOCK rounds
    at a time, so no T-long text is ever held.  Equal
    round sequences hash equal whatever the pool they were built from: a
    "rounds" file and the sampled instance it was saved from, say."""
    index = instance.index
    form = canonical_json({**_header(instance), "round_rows": [],
                           "rows": rows_to_dicts(instance.rows)})
    head, tail = form.split('"round_rows":[]')
    head, tail = f'{head}"round_rows":[', f"]{tail}"
    labels = list(map(str, range(len(instance.rows[0]))))  # row k's "round_rows" entry
    digits = sum(u * len(label) for u, label in zip(np.bincount(index).tolist(), labels))
    digest = _sha256(len(head) + digits + len(index) - 1 + len(tail))(head.encode("ascii"))
    for lo in range(0, len(index), ROUND_BLOCK):
        block = ",".join([labels[k] for k in index[lo : lo + ROUND_BLOCK].tolist()])
        digest.update(f"{',' if lo else ''}{block}".encode("ascii"))
    digest.update(tail.encode("ascii"))
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
    :func:`from_dict`); a parse error is reported with its byte offset.
    Row objects are packed as they are parsed (see :func:`_pack_row`)."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = parse_json(fh.read(), object_hook=_pack_row)
    return from_dict(tree.as_dict() if isinstance(tree, _PackedRow) else tree)


def save_instance(obj: Instance | StochasticModel, path) -> None:
    """Write an instance or model; save -> load round-trips bit-exactly."""
    write_text_atomic(path, dumps(to_dict(obj)))
