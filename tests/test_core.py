import numpy as np
import pytest
from hypothesis import given, strategies as st

from ora_bob import environments as env
from ora_bob.allocator import run
from ora_bob.core import (
    ActionSet,
    BudgetSpec,
    InputTuple,
    Instance,
    InstanceValidationError,
    ValidationError,
    unified_rows,
)
from ora_bob.dual_ogd import OgdConfig
from ora_bob.oracles import opt_lp_relax
from ora_bob.serialization import instance_hash


def make_round(f, g, h):
    return InputTuple(rewards=f, general_costs=g, consumptions=h)


def unify(r, budget):
    """The (M, K) unified matrix of one input tuple under ``budget``."""
    return unified_rows(r.general_costs[None], r.consumptions[None], budget.per_round_budget)[0]


def validate(rounds, budget, actions):
    return Instance(actions, budget, rounds).validate()


class TestActionSet:
    def test_valid(self):
        a = ActionSet(3, 1)
        assert a.count == 3 and a.void_index == 1

    def test_count_positive(self):
        with pytest.raises(ValidationError):
            ActionSet(0)

    def test_void_in_range(self):
        with pytest.raises(ValidationError):
            ActionSet(2, 2)


class TestBudgetSpec:
    def test_limits(self):
        b = BudgetSpec(10, [0.5, 0.3])
        assert np.allclose(b.limits, [5.0, 3.0])

    def test_positive_budgets(self):
        with pytest.raises(ValidationError):
            BudgetSpec(10, [0.5, 0.0])

    def test_positive_horizon(self):
        with pytest.raises(ValidationError):
            BudgetSpec(0, [0.5])


class TestUnify:
    def test_single_budget_row(self):
        # m=0, n=1, beta=0.5, consumption row [0, 1] -> unified [-0.5, 0.5]
        r = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 1.0]])
        u = unify(r, BudgetSpec(10, [0.5]))
        assert np.array_equal(u, [[-0.5, 0.5]])

    def test_void_column(self):
        r = make_round(
            [0.0, 0.5], [[0.0, 0.3]], [[0.0, 0.2], [0.0, 0.9]]
        )
        u = unify(r, BudgetSpec(10, [0.4, 0.7]))
        assert np.array_equal(u[:, 0], [0.0, -0.4, -0.7])

    def test_example1_general_rows_pass_through(self):
        # m=2, n=0: the x_B column [rho+eps, -1] is copied verbatim
        rho, eps = 0.1, 0.2
        g = [[0.0, -rho, rho + eps], [0.0, -rho, -1.0]]
        r = make_round([0.0, 1.0, 1.0], g, np.zeros((0, 3)))
        u = unify(r, BudgetSpec(5, []))
        assert np.array_equal(u, np.asarray(g))

    def test_dimension_mismatch_names_axis(self):
        r = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 1.0]])
        with pytest.raises(ValidationError, match="n=1.*n=2"):
            unify(r, BudgetSpec(10, [0.5, 0.5]))

    def test_linearity_in_consumption(self):
        # doubling a consumption entry doubles the shifted entry plus the
        # beta offset bookkeeping; dyadic values keep the check exact
        beta = BudgetSpec(20, [0.25])
        r1 = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.25]])
        r2 = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])
        u1 = unify(r1, beta)[0, 1]
        u2 = unify(r2, beta)[0, 1]
        assert u2 == 2.0 * (u1 + 0.25) - 0.25


class TestInputTuple:
    def test_shape_errors_name_axis(self):
        with pytest.raises(ValidationError, match="action columns"):
            make_round([0.0, 1.0], [[0.0, 0.1, 0.2]], np.zeros((0, 2)))

    def test_immutability(self):
        r = make_round([0.0, 1.0], [[0.0, 0.5]], [[0.0, 0.5]])
        with pytest.raises(ValueError):
            r.rewards[0] = 1.0
        with pytest.raises(ValueError):
            r.general_costs[0, 0] = 1.0


class TestValidateInstance:
    def test_all_void_single_action_valid(self):
        rounds = [make_round([0.0], np.zeros((0, 1)), np.zeros((0, 1)))] * 4
        report = validate(rounds, BudgetSpec(4, []), ActionSet(1, 0))
        assert report.ok

    def test_reward_out_of_range_cites_location(self):
        good = make_round([0.0, 0.5, 0.5], np.zeros((0, 3)), np.zeros((0, 3)))
        bad = make_round([0.0, 0.5, 1.2], np.zeros((0, 3)), np.zeros((0, 3)))
        report = validate(
            [good, good, bad, good], BudgetSpec(4, []), ActionSet(3, 0)
        )
        assert not report.ok
        issue = report.issues[0]
        assert (issue.round, issue.field, issue.coordinate) == (3, "reward", (2,))

    def test_budget_gate_closed_at_round_one(self):
        rounds = [make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])] * 5
        report = validate(rounds, BudgetSpec(5, [0.1]), ActionSet(2, 0))
        assert not report.ok
        assert any("budget gate closed at round 1" in i.message for i in report.issues)

    def test_large_budget_warns(self):
        rounds = [make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])] * 5
        report = validate(rounds, BudgetSpec(5, [1.5]), ActionSet(2, 0))
        assert report.ok
        assert any("never binding" in w for w in report.warnings)

    def test_void_column_violation(self):
        bad = make_round([0.0, 1.0], [[0.25, 0.3]], np.zeros((0, 2)))
        report = validate([bad], BudgetSpec(1, []), ActionSet(2, 0))
        assert not report.ok
        assert report.issues[0].field == "void_column"

    def test_inconsistent_shapes_reported(self):
        a = make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((0, 2)))
        b = make_round([0.0, 1.0, 0.2], np.zeros((0, 3)), np.zeros((0, 3)))
        # an instance stores one (K, m, n): rounds of two shapes are refused
        with pytest.raises(ValidationError, match="one shape"):
            Instance(ActionSet(2, 0), BudgetSpec(2, []), (a, b))
        # rounds of one shape that is not the action set's fail validation
        inst = Instance(ActionSet(2, 0), BudgetSpec(2, []), (b, b))
        assert [str(i) for i in inst.validate().issues] == [
            f"round {t}: shape[]: (K=3, m=0, n=0) inconsistent with (K=2, m=0, n=0)"
            for t in (1, 2)
        ]
        # rounds whose n is not the budget's are reported once
        report = validate([a, a], BudgetSpec(2, [0.5]), ActionSet(2, 0))
        assert [str(i) for i in report.issues] == [
            "instance: shape[]: rounds have n=0 resources, budget has n=1"
        ]
        with pytest.raises(InstanceValidationError):
            run(inst, OgdConfig(0.1, 0.05))

    def test_nan_is_flagged(self):
        bad = make_round([0.0, float("nan")], np.zeros((0, 2)), np.zeros((0, 2)))
        report = validate([bad], BudgetSpec(1, []), ActionSet(2, 0))
        assert not report.ok


class TestInstance:
    def test_horizon_mismatch(self):
        r = make_round([0.0], np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(ValidationError):
            Instance(ActionSet(1, 0), BudgetSpec(3, []), (r,))

    def test_unified_stack_matches_per_round(self):
        r1 = make_round([0.0, 1.0], [[0.0, 0.4]], [[0.0, 0.7]])
        r2 = make_round([0.0, 0.3], [[0.0, -0.9]], [[0.0, 0.1]])
        inst = Instance(ActionSet(2, 0), BudgetSpec(2, [0.5]), (r1, r2))
        for t in (1, 2):
            expected = unify(inst.rounds[t - 1], inst.budget)
            assert np.array_equal(inst.unified_stack[t - 1], expected)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_valid_instances_pass_validation(k_extra, m, n, seed):
    from ora_bob import rng

    K = 1 + k_extra
    T = 3
    u = rng.uniforms(seed, 1, np.arange(T * K * (1 + m + n))).reshape(T, -1)
    rounds = []
    for t in range(T):
        f = u[t, :K].copy()
        g = (2.0 * u[t, K : K + m * K] - 1.0).reshape(m, K)
        h = u[t, K + m * K :].reshape(n, K).copy()
        f[0] = 0.0
        if m:
            g[:, 0] = 0.0
        if n:
            h[:, 0] = 0.0
        rounds.append(make_round(f, g, h))
    budget = BudgetSpec(T, np.full(n, 0.5))
    report = validate(rounds, budget, ActionSet(K, 0))
    assert report.ok, report.issues[:3]


def _store_instances(tmp_path):
    """Instances of every construction route, by name."""
    model = env.random_model(env.Seed(4), S=5, K=3, m=1, n=2, feasibility_margin=0.2,
                             horizon=40)
    path = tmp_path / "inst.json"
    env.save_instance(env.random_instance(env.Seed(5), 12, 3, 2, 1, 0.2), path)
    return {
        "random": env.random_instance(env.Seed(3), 30, 4, 2, 2, 0.2),
        # support rows 1 and 3 are never drawn
        "sampled": env.sample_instance(env.StochasticModel(
            model.actions, model.budget, model.support, [0.4, 0.0, 0.3, 0.0, 0.3]), 60, 9),
        "constant": env.constant_instance(
            env.StochasticModel(model.actions, model.budget, model.support[:1], [1.0]), 25),
        "file_loaded": env.load_instance(path),
        "m0": env.sample_instance(
            env.random_model(env.Seed(6), S=4, K=3, m=0, n=2, feasibility_margin=0.2), 50, 1),
        "n0": env.sample_instance(
            env.random_model(env.Seed(7), S=4, K=3, m=2, n=0, feasibility_margin=0.2), 50, 2),
    }


class TestRoundStore:
    @pytest.mark.parametrize(
        "name", ["random", "sampled", "constant", "file_loaded", "m0", "n0"]
    )
    def test_stacks_are_bitwise_stacks_of_rounds(self, tmp_path, name):
        inst = _store_instances(tmp_path)[name]
        rounds = inst.rounds
        assert len(rounds) == inst.horizon
        assert all(r is inst.pool[i] for r, i in zip(rounds, inst.index))
        expected = {
            "rewards_stack": np.stack([r.rewards for r in rounds]),
            "general_stack": np.stack([r.general_costs for r in rounds]),
            "consumption_stack": np.stack([r.consumptions for r in rounds]),
            "unified_stack": np.stack(
                [unify(r, inst.budget) for r in rounds]
            ),
        }
        for attr, want in expected.items():
            got = getattr(inst, attr)
            assert got.shape == want.shape and got.dtype == want.dtype, attr
            assert got.tobytes() == want.tobytes(), attr
            assert not got.flags.writeable

    def test_rounds_are_the_original_objects(self):
        """``rounds`` are the ``pool`` objects, built from the rows once, when
        first read; ``Instance(...)`` stacks one row per round."""
        a = make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((0, 2)))
        b = make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((0, 2)))  # equal bytes
        rounds = (a, b, a, a, b)
        inst = Instance(ActionSet(2, 0), BudgetSpec(5, []), rounds)
        assert inst.index.tolist() == [0, 1, 2, 3, 4]
        assert not inst.index.flags.writeable
        assert not any(r.flags.writeable for r in inst.rows)
        assert inst.pool is inst.pool and inst.rounds is inst.rounds
        assert all(x is inst.pool[i] for x, i in zip(inst.rounds, inst.index.tolist()))
        assert all(x.rewards.tobytes() == y.rewards.tobytes() for x, y in zip(inst.rounds, rounds))
        model = env.random_model(env.Seed(2), S=6, K=3, m=1, n=1, feasibility_margin=0.2)
        sampled = env.sample_instance(model, 50, 4)
        draws = env.sample_support_indices(model, 50, 4)
        assert all(
            np.array_equal(r.consumptions, model.support[d].consumptions)
            for r, d in zip(sampled.rounds, draws)
        )

    @pytest.mark.parametrize("kind", ["range_and_void", "odd_shape"])
    def test_sampled_bad_row_issues_match_round_by_round(self, kind):
        if kind == "range_and_void":
            good = make_round([0.0, 0.5], np.zeros((0, 2)), [[0.0, 0.5]])
            bad = make_round([0.0, 1.5], np.zeros((0, 2)), [[0.25, 0.5]])
        else:  # both rows have 3 actions, the action set 2
            good = make_round([0.0, 0.5, 0.5], np.zeros((0, 3)), [[0.0, 0.5, 0.5]])
            bad = make_round([0.0, 0.25, 0.5], np.zeros((0, 3)), [[0.0, 0.5, 0.25]])
        model = env.StochasticModel(
            ActionSet(2, 0), BudgetSpec(30, [0.5]), (good, bad), [0.7, 0.3]
        )
        inst = env.sample_instance(model, 30, 5)
        drawn = [t + 1 for t, d in enumerate(env.sample_support_indices(model, 30, 5)) if d]
        assert len(drawn) >= 3
        issues = inst.validate().issues
        # one row per round: the rows checked round by round
        assert issues == validate(inst.rounds, inst.budget, inst.actions).issues
        where = [(i.round, i.field, i.coordinate) for i in issues]
        if kind == "range_and_void":
            assert where == [(t, "reward", (1,)) for t in drawn] + [
                (t, "void_column", (0, 0)) for t in drawn
            ]
        else:
            assert where == [(t, "shape", ()) for t in range(1, 31)]

    def test_pool_is_the_rows_the_index_uses(self, tmp_path):
        sampled = _store_instances(tmp_path)["sampled"]
        assert len(sampled.pool) == sampled.rows[0].shape[0] == 3  # rows 1, 3 never drawn
        assert sorted(set(sampled.index.tolist())) == [0, 1, 2]
        rows = ([[0.0, 0.1], [0.0, 0.2], [0.0, 0.3]], np.zeros((3, 0, 2)), np.zeros((3, 0, 2)))
        inst = Instance.from_rows(ActionSet(2, 0), BudgetSpec(3, []), rows, [2, 0, 2])
        assert inst.rows[0].tolist() == [[0.0, 0.1], [0.0, 0.3]]  # in row order
        assert inst.index.tolist() == [1, 0, 1]
        assert [r.rewards[1] for r in inst.rounds] == [0.3, 0.1, 0.3]

    def test_index_outside_pool_refused(self):
        rows = (np.zeros((1, 1)), np.zeros((1, 0, 1)), np.zeros((1, 0, 1)))
        for index in ([0, 1], [-1, 0]):
            with pytest.raises(ValidationError, match="outside the 1 rows"):
                Instance.from_rows(ActionSet(1, 0), BudgetSpec(2, []), rows, index)

    @pytest.mark.parametrize(
        "name", ["random", "sampled", "constant", "file_loaded", "m0", "n0"]
    )
    def test_rebuilt_from_rounds_is_bitwise_the_same(self, tmp_path, name):
        inst = _store_instances(tmp_path)[name]
        rebuilt = Instance(inst.actions, inst.budget, inst.rounds)
        assert rebuilt.rows[0].shape[0] == inst.horizon  # one row per round
        for attr in ("rewards_stack", "general_stack", "consumption_stack", "unified_stack"):
            assert getattr(rebuilt, attr).tobytes() == getattr(inst, attr).tobytes(), attr
        assert instance_hash(rebuilt) == instance_hash(inst)
        assert opt_lp_relax(rebuilt).opt_value == opt_lp_relax(inst).opt_value

    def test_no_input_tuple_built(self, tmp_path, monkeypatch):
        model = env.random_model(env.Seed(4), S=5, K=3, m=1, n=2, feasibility_margin=0.2)
        env.save_instance(model, tmp_path / "model.json")
        env.save_instance(env.random_instance(env.Seed(5), 12, 3, 2, 1, 0.2),
                          tmp_path / "inst.json")
        built = []
        post_init = InputTuple.__post_init__

        def counted(r):
            built.append(r)
            post_init(r)

        monkeypatch.setattr(InputTuple, "__post_init__", counted)
        config = OgdConfig(eta=0.05, delta=0.05)
        run(env.random_instance(env.Seed(3), 40, 4, 2, 2, 0.2), config)
        run(env.sample_instance(env.random_model(env.Seed(6), 4, 3, 1, 1, 0.2), 40, 1), config)
        run(env.sample_instance(env.load_instance(tmp_path / "model.json"), 40, 2), config)
        run(env.load_instance(tmp_path / "inst.json"), config)
        assert built == []
        assert len(model.support) == len(built) == 5  # built when read, once per row

    def test_mixed_shapes_refused(self):
        a = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])
        for b in (make_round([0.0, 1.0, 0.5], np.zeros((0, 3)), [[0.0, 0.5, 0.5]]),  # K
                  make_round([0.0, 1.0], [[0.0, 0.5]], [[0.0, 0.5]]),  # m
                  make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((2, 2)))):  # n
            with pytest.raises(ValidationError, match="one shape"):
                Instance(ActionSet(2, 0), BudgetSpec(2, [0.5]), (a, b))
            with pytest.raises(ValidationError, match="one shape"):
                env.StochasticModel(ActionSet(2, 0), BudgetSpec(2, [0.5]), (a, b), [0.5, 0.5])
