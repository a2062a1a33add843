import hashlib
import importlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ora_bob as ob
from ora_bob import serialization as ser
from ora_bob import traceio
from ora_bob.core import ROUND_BLOCK
from ora_bob.environments import random_instance
from ora_bob.serialization import SchemaError
from rowstacks import consumption_stack, general_stack, rewards_stack, trace_columns


def test_instance_dict_schema_shape():
    inst = random_instance(1, T=3, K=2, m=1, n=1, feasibility_margin=0.3)
    d = ser.to_dict(inst)
    assert set(d) == {"T", "K", "m", "n", "void_index", "beta", "rounds"}
    assert len(d["rounds"]) == 3
    assert set(d["rounds"][0]) == {"f", "g", "h"}
    assert len(d["rounds"][0]["f"]) == 2


def test_content_hash_stable_and_sensitive():
    inst = random_instance(1, T=3, K=2, m=1, n=1, feasibility_margin=0.3)
    h1 = ser.instance_hash(inst)
    h2 = ser.instance_hash(inst)
    assert h1 == h2 and h1.startswith("sha256:")
    other = random_instance(2, T=3, K=2, m=1, n=1, feasibility_margin=0.3)
    assert ser.instance_hash(other) != h1


def test_missing_field_pointer():
    inst = random_instance(1, T=2, K=2, m=0, n=1, feasibility_margin=0.5)
    d = ser.to_dict(inst)
    del d["rounds"][1]["g"]
    with pytest.raises(SchemaError, match="/rounds/1"):
        ser.from_dict(d)


def test_type_error_pointer():
    inst = random_instance(1, T=2, K=2, m=0, n=1, feasibility_margin=0.5)
    d = ser.to_dict(inst)
    d["rounds"][0]["f"][1] = "high"
    with pytest.raises(SchemaError, match="/rounds/0/f/1"):
        ser.from_dict(d)


def test_wrong_round_count():
    inst = random_instance(1, T=2, K=2, m=0, n=1, feasibility_margin=0.5)
    d = ser.to_dict(inst)
    d["rounds"].append(d["rounds"][0])
    with pytest.raises(SchemaError, match="/rounds"):
        ser.from_dict(d)


def test_unknown_top_level_field():
    inst = random_instance(1, T=2, K=2, m=0, n=1, feasibility_margin=0.5)
    d = ser.to_dict(inst)
    d["notes"] = "hello"
    with pytest.raises(SchemaError, match="/notes"):
        ser.from_dict(d)


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2], "/: expected object, got list"),
        ({"rounds": [], "support": []}, "/: file has both 'rounds' and 'support'"),
        ({"T": 1}, "/: file has neither 'rounds' nor 'support'"),
    ],
    ids=["not_object", "both", "neither"],
)
def test_from_dict_file_level_errors(payload, message):
    with pytest.raises(SchemaError) as info:
        ser.from_dict(payload)
    assert str(info.value) == message and info.value.pointer == ""


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20)
def test_json_roundtrip_bit_identical(seed):
    inst = random_instance(seed, T=4, K=3, m=2, n=2, feasibility_margin=0.2)
    text = json.dumps(ser.to_dict(inst))
    back = ser.from_dict(json.loads(text))
    assert np.array_equal(rewards_stack(back), rewards_stack(inst))
    assert np.array_equal(general_stack(back), general_stack(inst))
    assert np.array_equal(consumption_stack(back), consumption_stack(inst))
    assert np.array_equal(back.budget.per_round_budget, inst.budget.per_round_budget)
    assert ser.instance_hash(back) == ser.instance_hash(inst)


def _sampled_instance():
    model = ob.random_model(3, S=5, K=3, m=1, n=2, feasibility_margin=0.2, horizon=50)
    return ob.sample_instance(model, 50, 9)


def _reference_hash(form) -> str:
    return f"sha256:{hashlib.sha256(ser.canonical_json(form).encode('utf-8')).hexdigest()}"


def test_instance_hash_is_content_hash_of_hash_form(tmp_path):
    sampled = _sampled_instance()
    path = tmp_path / "inst.json"
    ob.save_instance(sampled, path)
    loaded = ob.load_instance(path)  # one pool row per round, equal content
    assert loaded.rows[0].shape[0] == 50 > sampled.rows[0].shape[0]
    for inst in (sampled, loaded, random_instance(4, T=30, K=3, m=0, n=2,
                                                  feasibility_margin=0.2)):
        form = ser.hash_form(inst)
        assert list(form) == ["T", "K", "m", "n", "void_index", "beta", "rows", "round_rows"]
        assert ser.instance_hash(inst) == ser.content_hash(form) == _reference_hash(form)
    assert ser.hash_form(loaded) == ser.hash_form(sampled)
    assert ser.instance_hash(loaded) == ser.instance_hash(sampled)


def test_hash_form_rows_in_order_of_first_appearance():
    """Rows of equal text share one entry, ordered by the round that first
    plays them; a row no round plays is not in the form."""
    f = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 1.0], [0.0, 3.0]])
    g, h = np.zeros((4, 0, 2)), np.array([[[0.0, 0.5]]] * 4)
    inst = ob.Instance(ob.ActionSet(2), ob.BudgetSpec(5, [0.3]), (f, g, h), [1, 2, 0, 1, 2])
    form = ser.hash_form(inst)
    assert [row["f"] for row in form["rows"]] == [[0.0, 2.0], [0.0, 1.0]]
    assert form["round_rows"] == [0, 1, 1, 0, 1]


def test_instance_hash_golden():
    # Pinned: the hash of the compact canonical form (schema_version 2) must
    # not change without a schema bump.
    assert ser.instance_hash(_sampled_instance()) == (
        "sha256:f4d0bbb50a6dc52d25e58fca648ca9c12512201d41d9749600dbf9d95ee4655a"
    )


def _with(inst, rows=None, index=None, beta=None, void=None) -> ob.Instance:
    """``inst`` with its rows, round index, budget or void action replaced."""
    actions = inst.actions if void is None else ob.ActionSet(inst.num_actions, void)
    budget = inst.budget if beta is None else ob.BudgetSpec(inst.horizon, beta)
    return ob.Instance(actions, budget, inst.rows if rows is None else rows,
                       inst.index if index is None else index)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_instance_hash_depends_on_the_round_sequence_only(seed, rand):
    """Pool layout never shows in the hash: permuted pool rows, equal-bytes
    rows duplicated, unplayed rows added or a save/load round trip as a
    "rounds" file.  Every played value (0.0 against -0.0 too), the round
    order, beta and the void action do."""
    model = ob.random_model(seed, S=6, K=3, m=1, n=2, feasibility_margin=0.2, horizon=40)
    inst = ob.sample_instance(model, 40, seed)
    digest = ser.instance_hash(inst)
    rows, index, S = inst.rows, inst.index, inst.rows[0].shape[0]

    perm = rand.sample(range(S), S)
    inverse = np.argsort(perm)
    same = [_with(inst, rows=tuple(r[perm] for r in rows), index=inverse[index])]
    copies = [rand.randrange(S) for _ in range(3)]
    doubled = tuple(np.concatenate([r, r[copies]]) for r in rows)
    moved = index.copy()
    for j, k in enumerate(copies):  # a round of each copied row moves to its copy
        moved[rand.choice(np.flatnonzero(index == k).tolist())] = S + j
    same.append(_with(inst, rows=doubled, index=moved))
    extra = tuple(np.concatenate([r, np.full_like(r[:1], 0.125)]) for r in rows)
    same.append(_with(inst, rows=extra))
    same.append(ser.from_dict(json.loads(json.dumps(ser.to_dict(inst)))))
    for other in same:
        assert ser.instance_hash(other) == digest

    t = rand.randrange(40)
    which = rand.randrange(3)
    cell = (index[t], *(rand.randrange(n) for n in rows[which].shape[1:]))

    def played_value(value):
        changed = [r.copy() for r in rows]
        changed[which][cell] = value
        return _with(inst, rows=tuple(changed))

    assert ser.instance_hash(played_value(0.0)) != ser.instance_hash(played_value(-0.0))
    differ = [played_value(np.nextafter(rows[which][cell], np.inf)),
              _with(inst, beta=inst.budget.per_round_budget * 0.5),
              _with(inst, void=(inst.actions.void_index + 1) % inst.num_actions)]
    distinct = [u for u in range(40) if rows[0][index[u]].tobytes() != rows[0][index[t]].tobytes()]
    if distinct:
        u = rand.choice(distinct)
        swapped = index.copy()
        swapped[[t, u]] = index[[u, t]]
        differ.append(_with(inst, index=swapped))
    for other in differ:
        assert ser.instance_hash(other) != digest


def _hash_sources():
    """A model and an instance it samples over several ROUND_BLOCKs."""
    model = ob.random_model(2, S=40, K=4, m=2, n=2, feasibility_margin=0.2, horizon=2000)
    return model, ob.sample_instance(model, 3 * ROUND_BLOCK + 5, 3)


@pytest.mark.parametrize("threshold", [1 << 40, 0], ids=["builtin", "openssl"])
def test_hash_providers_give_equal_digests(monkeypatch, threshold):
    """The provider never shows in a digest: with every text below the
    threshold (the built-in sha256) or above it (OpenSSL's), each digest is
    hashlib's of the canonical text, and the running total counts its bytes."""
    monkeypatch.setattr(ser, "OPENSSL_HASH_BYTES", threshold, raising=False)
    monkeypatch.setattr(ser, "_hashed_bytes", 0, raising=False)
    model, sampled = _hash_sources()
    assert ser.content_hash(ser.to_dict(model)) == _reference_hash(ser.to_dict(model))
    before = ser._hashed_bytes
    assert ser.instance_hash(sampled) == _reference_hash(ser.hash_form(sampled))
    assert ser._hashed_bytes - before == len(ser.canonical_json(ser.hash_form(sampled)))


def test_hash_provider_follows_the_running_total(monkeypatch):
    builtin = importlib.import_module(ser._BUILTIN_SHA256).sha256
    monkeypatch.setattr(ser, "_hashed_bytes", 0)
    assert ser._sha256(ser.OPENSSL_HASH_BYTES - 1) is builtin
    assert ser._sha256(1) is hashlib.sha256
    assert ser._sha256(0) is hashlib.sha256


def test_hash_falls_back_to_hashlib_without_a_builtin_module(monkeypatch):
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(ser, "_hashed_bytes", 0)
    assert ser._sha256(0) is hashlib.sha256
    model, sampled = _hash_sources()
    assert ser.instance_hash(sampled) == _reference_hash(ser.hash_form(sampled))
    assert ser.content_hash(ser.to_dict(model)) == _reference_hash(ser.to_dict(model))


def _per_cell_trace_text(trajectory, header):
    """The trace text formatted one value at a time: integers as str, all
    else as repr(float)."""
    cols = trace_columns(trajectory)
    lines = [f"# {key}={value}" for key, value in header.items()]
    lines.append(",".join(cols))
    for i in range(trajectory.horizon):
        cells = []
        for a in cols.values():
            v = a[i]
            cells.append(str(int(v)) if isinstance(v, np.integer) else repr(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_trace_writer_matches_per_cell_formatting(tmp_path):
    inst = random_instance(6, T=40, K=3, m=1, n=2, feasibility_margin=0.2)
    f, g, h = (rows.copy() for rows in inst.rows)
    f[inst.index[:2]] = -0.0  # the reward and cum_reward cells of rounds 1 and 2
    inst = ob.Instance(inst.actions, inst.budget, (f, g, h), inst.index)
    tr = ob.run(inst, ob.default_config(inst))
    header = {"schema_version": traceio.SCHEMA_VERSION, "T": 40, "config": "{}"}
    path = tmp_path / "t.csv"
    traceio.write_trace_csv(path, tr, header)
    text = path.read_bytes().decode("utf-8")
    assert text == _per_cell_trace_text(tr, header)
    assert text.splitlines()[4].split(",")[4:6] == ["-0.0", "-0.0"]
