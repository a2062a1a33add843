import json
import os

import numpy as np
import pytest

import ora_bob as ob
from ora_bob import rng, serialization
from ora_bob.core import StochasticModel, ValidationError
from ora_bob.environments import (
    GENERATORS,
    build_generator,
    make_example1_instance,
    make_pacing_model,
    make_push_pull_model,
    random_instance,
    random_model,
    sample_instance,
    sample_support_indices,
)
from ora_bob.serialization import SchemaError, load_instance, save_instance, to_dict


class TestSeed:
    def test_reduced_mod_2_64(self):
        hashes = {
            serialization.instance_hash(
                random_instance(seed, T=6, K=3, m=1, n=1, feasibility_margin=0.2)
            )
            for seed in (2**64 + 5, 5, np.int64(5))
        }
        assert len(hashes) == 1


class TestStochasticModel:
    def test_prob_sum_enforced(self):
        fx = make_example1_instance(0.1, 0.2, horizon=20)
        with pytest.raises(ValidationError):
            StochasticModel(fx.general.actions, fx.general.budget, fx.general.rows, [0.9])

    def test_validate_reports_support_issues(self):
        bad = ([[0.0, 1.5]], np.zeros((1, 0, 2)), np.zeros((1, 0, 2)))
        model = StochasticModel(ob.ActionSet(2, 0), ob.BudgetSpec(10, []), bad, [1.0])
        assert not model.validate().ok


class TestSampling:
    def test_degenerate_support_repeats(self):
        fx = make_example1_instance(0.1, 0.2, horizon=20)
        inst = sample_instance(fx.general, 7, 123)
        assert inst.horizon == 7 and inst.index.tolist() == [0] * 7
        assert all(a.tobytes() == b.tobytes() for a, b in zip(inst.rows, fx.general.rows))

    def test_law_of_large_numbers(self):
        model = random_model(8, S=2, K=3, m=1, n=0, feasibility_margin=0.2)
        idx = sample_support_indices(model, 100_000, 42)
        freq = float(np.mean(idx == 0))
        assert abs(freq - 0.5) <= 0.01

    def test_distinct_seeds_differ(self):
        model = random_model(8, S=2, K=3, m=1, n=0, feasibility_margin=0.2)
        a = sample_support_indices(model, 20, 1)
        b = sample_support_indices(model, 20, 2)
        assert not np.array_equal(a, b)

    def test_same_seed_identical(self):
        model = random_model(8, S=3, K=3, m=1, n=1, feasibility_margin=0.2)
        a = sample_support_indices(model, 50, 9)
        b = sample_support_indices(model, 50, 9)
        assert np.array_equal(a, b)

    def test_sampled_instance_valid(self):
        model = random_model(8, S=3, K=4, m=2, n=1, feasibility_margin=0.2)
        inst = sample_instance(model, 40, 0)
        assert inst.validate().ok


class TestExample1:
    def test_swing_column(self):
        fx = make_example1_instance(0.1, 0.2, horizon=20)
        inst = sample_instance(fx.general, 3, 0)
        col = inst.unified_stack[0][:, 2]
        assert col[0] == pytest.approx(0.3, abs=1e-15)
        assert col[1] == -1.0

    def test_void_columns_zero(self):
        fx = make_example1_instance(0.1, 0.2, horizon=20)
        for model in (fx.budget_only, fx.general):
            f, g, h = model.rows
            assert f[0, 0] == 0.0
            assert np.all(g[0, :, 0] == 0.0)
            assert np.all(h[0, :, 0] == 0.0)

    def test_budget_variant_uses_rho_budgets(self):
        fx = make_example1_instance(0.1, 0.2, horizon=20)
        assert np.array_equal(fx.budget_only.budget.per_round_budget, [0.1, 0.1])

    def test_regime_validation(self):
        with pytest.raises(ValidationError):
            make_example1_instance(0.2, 0.2)  # rho >= 1/6
        with pytest.raises(ValidationError):
            make_example1_instance(0.15, 0.6)  # 3 rho + eps >= 1
        with pytest.raises(ValidationError):
            make_example1_instance(0.1, -0.1)
        with pytest.raises(ValidationError):
            make_example1_instance(0.1, 0.2, horizon=5)  # budget gate closed

    def test_both_variants_validate(self):
        fx = make_example1_instance(0.1, 0.2, horizon=20)
        assert fx.budget_only.validate().ok
        assert fx.general.validate().ok


class TestRandomInstance:
    def test_margin_contract_via_oracle(self):
        for seed in range(5):
            inst = random_instance(seed, T=50, K=4, m=2, n=2, feasibility_margin=0.2)
            assert ob.slater_adv(inst) >= 0.2

    def test_safe_action_is_not_void_when_general_constraints_exist(self):
        inst = random_instance(3, T=10, K=3, m=2, n=0, feasibility_margin=0.3)
        assert np.all(inst.general_stack[:, :, 1] <= -0.3)

    def test_deterministic(self):
        a = random_instance(11, T=30, K=3, m=1, n=1, feasibility_margin=0.2)
        b = random_instance(11, T=30, K=3, m=1, n=1, feasibility_margin=0.2)
        assert np.array_equal(a.unified_stack, b.unified_stack)
        assert np.array_equal(a.rewards_stack, b.rewards_stack)

    def test_different_seed_differs(self):
        a = random_instance(11, T=30, K=3, m=1, n=1, feasibility_margin=0.2)
        b = random_instance(12, T=30, K=3, m=1, n=1, feasibility_margin=0.2)
        assert not np.array_equal(a.rewards_stack, b.rewards_stack)

    def test_validates(self):
        inst = random_instance(0, T=25, K=6, m=3, n=3, feasibility_margin=0.2)
        assert inst.validate().ok

    def test_needs_two_actions(self):
        with pytest.raises(ValidationError):
            random_instance(0, T=5, K=1, m=1, n=0, feasibility_margin=0.2)


class TestNamedModels:
    def test_push_pull_slater(self):
        model = make_push_pull_model()
        assert model.validate().ok
        assert ob.slater_stoc(model) == 0.5

    def test_pacing_model_valid(self):
        model = make_pacing_model()
        assert model.validate().ok
        assert ob.slater_stoc(model) == 0.25


#: content_hash of each generator's default output, as written by ``gen``.
GENERATOR_HASHES = {
    "example1_budget": "sha256:6ae67826c75682c1c9a8297f8c03cf606ec853f9f863d00f49acb682373fc4d5",
    "example1_general": "sha256:b7a10578e5d2829d4265ee2a5c7242a42f6bb4414fdcbefd541a167ec7952736",
    "random": "sha256:3d67e7ebaa386e1ad8a5f266ce72f54344cb35c6f7c531786cf3d862081ec186",
    "random_model": "sha256:994b5a730bf438ba8ed2e09c16fb810ca993b55b05d4500de84764b957544e93",
    "push_pull": "sha256:b96108633f3df99458b51a6024840a4ad5e68ba7737b0456b358a810f37b77af",
    "pacing": "sha256:6161078ce89a13e91434fdb41d330394ea619d1aaac95db460d00dcd50fbe575",
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_default_output_pinned(name):
    payload = to_dict(build_generator(name, {}))
    assert serialization.content_hash(payload) == GENERATOR_HASHES[name]


class TestIO:
    def test_golden_example1_file_matches_generator(self, tmp_path):
        golden = os.path.join(os.path.dirname(__file__), "data", "example1_general.json")
        loaded = load_instance(golden)
        made = make_example1_instance(0.1, 0.2, horizon=50).general
        assert to_dict(loaded) == to_dict(made)
        assert np.array_equal(loaded.rows[1], made.rows[1])

    def test_roundtrip_instance_bit_exact(self, tmp_path):
        inst = random_instance(2, T=8, K=3, m=2, n=1, feasibility_margin=0.2)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        assert np.array_equal(back.rewards_stack, inst.rewards_stack)
        assert np.array_equal(back.general_stack, inst.general_stack)
        assert np.array_equal(back.consumption_stack, inst.consumption_stack)
        assert np.array_equal(back.budget.per_round_budget, inst.budget.per_round_budget)

    def test_roundtrip_model_bit_exact(self, tmp_path):
        model = random_model(4, S=3, K=3, m=1, n=2, feasibility_margin=0.25)
        path = tmp_path / "model.json"
        save_instance(model, path)
        back = load_instance(path)
        assert isinstance(back, StochasticModel)
        assert np.array_equal(back.probs, model.probs)
        for a, b in zip(back.rows, model.rows):
            assert np.array_equal(a, b)

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"T": 1, "K": 1, "m": 0,')
        with pytest.raises(SchemaError, match="byte offset"):
            load_instance(path)

    def test_unknown_field_rejected_with_pointer(self, tmp_path):
        inst = random_instance(2, T=2, K=2, m=0, n=1, feasibility_margin=0.5)
        payload = to_dict(inst)
        payload["rounds"][1]["extra"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="/rounds/1/extra"):
            load_instance(path)

    def test_strictness_env_var(self, tmp_path, monkeypatch):
        """Unknown fields are always refused; no environment variable
        loosens the schema."""
        inst = random_instance(2, T=2, K=2, m=0, n=1, feasibility_margin=0.5)
        payload = to_dict(inst)
        payload["comment"] = "ignore me"
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="/comment: unknown field"):
            load_instance(path)
        monkeypatch.setenv("ORA_BOB_SCHEMA_STRICT", "0")
        with pytest.raises(SchemaError, match="/comment: unknown field"):
            load_instance(path)

    def test_neither_rounds_nor_support(self, tmp_path):
        path = tmp_path / "neither.json"
        path.write_text('{"T": 1}')
        with pytest.raises(SchemaError, match="neither"):
            load_instance(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_instance(tmp_path / "nope.json")


class TestGeneratorRegistry:
    def test_build_each_generator(self):
        assert isinstance(build_generator("example1_general", {}), StochasticModel)
        assert isinstance(build_generator("example1_budget", {}), StochasticModel)
        assert isinstance(build_generator("random", {"T": "12", "seed": "3"}), ob.Instance)
        assert isinstance(build_generator("random_model", {"S": "2"}), StochasticModel)
        assert isinstance(build_generator("push_pull", {}), StochasticModel)
        assert isinstance(build_generator("pacing", {}), StochasticModel)

    def test_unknown_generator(self):
        with pytest.raises(ValidationError, match="unknown generator"):
            build_generator("nope", {})
