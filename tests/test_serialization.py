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


def test_instance_hash_is_content_hash_of_dict(tmp_path):
    sampled = _sampled_instance()
    path = tmp_path / "inst.json"
    ob.save_instance(sampled, path)
    loaded = ob.load_instance(path)  # distinct round objects, equal content
    for inst in (sampled, loaded, random_instance(4, T=30, K=3, m=0, n=2,
                                                  feasibility_margin=0.2)):
        assert ser.instance_hash(inst) == ser.content_hash(ser.to_dict(inst))
    assert ser.instance_hash(loaded) == ser.instance_hash(sampled)


def test_instance_hash_golden():
    # Pinned: the canonical-JSON hash must not change without a schema bump.
    assert ser.instance_hash(_sampled_instance()) == (
        "sha256:f22c3b1b54b2088b8964f6e0fb6e64eec47b3780829d16ed7c2789f9794c0dde"
    )


def _hash_sources():
    model = ob.random_model(2, S=40, K=4, m=2, n=2, feasibility_margin=0.2, horizon=2000)
    return model, ob.sample_instance(model, 2000, 3)


def _reference_hash(obj) -> str:
    text = ser.canonical_json(ser.to_dict(obj)).encode("utf-8")
    return f"sha256:{hashlib.sha256(text).hexdigest()}"


@pytest.mark.parametrize("threshold", [1 << 40, 0], ids=["builtin", "openssl"])
def test_hash_providers_give_equal_digests(monkeypatch, threshold):
    """The provider never shows in a digest: with every text below the
    threshold (the built-in sha256) or above it (OpenSSL's), each digest is
    hashlib's of the canonical text."""
    monkeypatch.setattr(ser, "OPENSSL_HASH_BYTES", threshold, raising=False)
    monkeypatch.setattr(ser, "_hashed_bytes", 0, raising=False)
    model, sampled = _hash_sources()
    for obj in (model, sampled):
        assert ser.content_hash(ser.to_dict(obj)) == _reference_hash(obj)
    assert ser.instance_hash(sampled) == _reference_hash(sampled)


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
    assert ser.instance_hash(sampled) == _reference_hash(sampled)
    assert ser.content_hash(ser.to_dict(model)) == _reference_hash(model)


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
    header = {"schema_version": 1, "T": 40, "config": "{}"}
    path = tmp_path / "t.csv"
    traceio.write_trace_csv(path, tr, header)
    text = path.read_bytes().decode("utf-8")
    assert text == _per_cell_trace_text(tr, header)
    assert text.splitlines()[4].split(",")[4:6] == ["-0.0", "-0.0"]
