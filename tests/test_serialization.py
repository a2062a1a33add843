import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ora_bob as ob
from ora_bob import serialization as ser
from ora_bob import traceio
from ora_bob.environments import random_instance
from ora_bob.serialization import SchemaError


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
    assert np.array_equal(back.rewards_stack, inst.rewards_stack)
    assert np.array_equal(back.general_stack, inst.general_stack)
    assert np.array_equal(back.consumption_stack, inst.consumption_stack)
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


def _per_cell_trace_text(trajectory, header):
    """The trace text formatted one value at a time: integers as str, all
    else as repr(float)."""
    cols = traceio.trace_columns(trajectory)
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
    tr = ob.run(inst, ob.default_config(inst))
    rewards = tr.rewards.copy()
    rewards[:2] = -0.0  # the reward and cum_reward cells of rounds 1 and 2
    tr = ob.Trajectory(
        tr.actions, tr.candidates, rewards, tr.unified_values, tr.duals,
        tr.gate_open, tr.cumulative_consumption, tr.stopping_time,
        tr.num_general, tr.num_resources, tr.eta, tr.delta,
    )
    header = {"schema_version": 1, "T": 40, "config": "{}"}
    path = tmp_path / "t.csv"
    traceio.write_trace_csv(path, tr, header)
    text = path.read_bytes().decode("utf-8")
    assert text == _per_cell_trace_text(tr, header)
    assert text.splitlines()[4].split(",")[4:6] == ["-0.0", "-0.0"]
