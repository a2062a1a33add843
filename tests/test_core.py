import numpy as np
import pytest
from hypothesis import given, strategies as st

from ora_bob import environments as env
from ora_bob.allocator import run
from ora_bob.core import (
    ActionSet,
    BudgetSpec,
    DualVector,
    InputTuple,
    Instance,
    InstanceValidationError,
    ValidationError,
    unify_constraints,
    validate_instance,
)
from ora_bob.dual_ogd import OgdConfig


def make_round(f, g, h):
    return InputTuple(rewards=f, general_costs=g, consumptions=h)


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
        u = unify_constraints(r, BudgetSpec(10, [0.5]))
        assert np.array_equal(u.matrix, [[-0.5, 0.5]])

    def test_void_column(self):
        r = make_round(
            [0.0, 0.5], [[0.0, 0.3]], [[0.0, 0.2], [0.0, 0.9]]
        )
        u = unify_constraints(r, BudgetSpec(10, [0.4, 0.7]))
        assert np.array_equal(u.matrix[:, 0], [0.0, -0.4, -0.7])

    def test_example1_general_rows_pass_through(self):
        # m=2, n=0: the x_B column [rho+eps, -1] is copied verbatim
        rho, eps = 0.1, 0.2
        g = [[0.0, -rho, rho + eps], [0.0, -rho, -1.0]]
        r = make_round([0.0, 1.0, 1.0], g, np.zeros((0, 3)))
        u = unify_constraints(r, BudgetSpec(5, []))
        assert np.array_equal(u.matrix, np.asarray(g))

    def test_dimension_mismatch_names_axis(self):
        r = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 1.0]])
        with pytest.raises(ValidationError, match="n=1.*n=2"):
            unify_constraints(r, BudgetSpec(10, [0.5, 0.5]))

    def test_linearity_in_consumption(self):
        # doubling a consumption entry doubles the shifted entry plus the
        # beta offset bookkeeping; dyadic values keep the check exact
        beta = BudgetSpec(20, [0.25])
        r1 = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.25]])
        r2 = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])
        u1 = unify_constraints(r1, beta).matrix[0, 1]
        u2 = unify_constraints(r2, beta).matrix[0, 1]
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
        report = validate_instance(rounds, BudgetSpec(4, []), ActionSet(1, 0))
        assert report.ok

    def test_reward_out_of_range_cites_location(self):
        good = make_round([0.0, 0.5, 0.5], np.zeros((0, 3)), np.zeros((0, 3)))
        bad = make_round([0.0, 0.5, 1.2], np.zeros((0, 3)), np.zeros((0, 3)))
        report = validate_instance(
            [good, good, bad, good], BudgetSpec(4, []), ActionSet(3, 0)
        )
        assert not report.ok
        issue = report.issues[0]
        assert (issue.round, issue.field, issue.coordinate) == (3, "reward", (2,))

    def test_budget_gate_closed_at_round_one(self):
        rounds = [make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])] * 5
        report = validate_instance(rounds, BudgetSpec(5, [0.1]), ActionSet(2, 0))
        assert not report.ok
        assert any("budget gate closed at round 1" in i.message for i in report.issues)

    def test_large_budget_warns(self):
        rounds = [make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])] * 5
        report = validate_instance(rounds, BudgetSpec(5, [1.5]), ActionSet(2, 0))
        assert report.ok
        assert any("never binding" in w for w in report.warnings)

    def test_void_column_violation(self):
        bad = make_round([0.0, 1.0], [[0.25, 0.3]], np.zeros((0, 2)))
        report = validate_instance([bad], BudgetSpec(1, []), ActionSet(2, 0))
        assert not report.ok
        assert report.issues[0].field == "void_column"

    def test_inconsistent_shapes_reported(self):
        a = make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((0, 2)))
        b = make_round([0.0, 1.0, 0.2], np.zeros((0, 3)), np.zeros((0, 3)))
        report = validate_instance([a, b], BudgetSpec(2, []), ActionSet(2, 0))
        assert any(i.field == "shape" and i.round == 2 for i in report.issues)
        inst = Instance(ActionSet(2, 0), BudgetSpec(2, []), (a, b))
        assert inst.validate().issues == report.issues
        with pytest.raises(InstanceValidationError):
            run(inst, OgdConfig(0.1, 0.05))

    def test_nan_is_flagged(self):
        bad = make_round([0.0, float("nan")], np.zeros((0, 2)), np.zeros((0, 2)))
        report = validate_instance([bad], BudgetSpec(1, []), ActionSet(2, 0))
        assert not report.ok


class TestDualVector:
    def test_nonnegative(self):
        with pytest.raises(ValidationError):
            DualVector([0.1, -0.2])

    def test_l1(self):
        assert DualVector([0.25, 0.5]).l1() == 0.75


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
            expected = unify_constraints(inst.rounds[t - 1], inst.budget).matrix
            assert np.array_equal(inst.unified(t).matrix, expected)


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
    report = validate_instance(rounds, budget, ActionSet(K, 0))
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
                [unify_constraints(r, inst.budget).matrix for r in rounds]
            ),
        }
        for attr, want in expected.items():
            got = getattr(inst, attr)
            assert got.shape == want.shape and got.dtype == want.dtype, attr
            assert got.tobytes() == want.tobytes(), attr
            assert not got.flags.writeable

    def test_rounds_are_the_original_objects(self):
        a = make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((0, 2)))
        b = make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((0, 2)))  # equal bytes
        rounds = (a, b, a, a, b)
        inst = Instance(ActionSet(2, 0), BudgetSpec(5, []), rounds)
        assert inst.pool == (a, b)  # by identity, first occurrence first
        assert inst.index.tolist() == [0, 1, 0, 0, 1]
        assert not inst.index.flags.writeable
        assert all(x is y for x, y in zip(inst.rounds, rounds))
        model = env.random_model(env.Seed(2), S=6, K=3, m=1, n=1, feasibility_margin=0.2)
        sampled = env.sample_instance(model, 50, 4)
        draws = env.sample_support_indices(model, 50, 4)
        assert sampled.pool == model.support
        assert all(r is model.support[d] for r, d in zip(sampled.rounds, draws))

    @pytest.mark.parametrize("kind", ["range_and_void", "odd_shape"])
    def test_sampled_bad_row_issues_match_round_by_round(self, kind):
        good = make_round([0.0, 0.5], np.zeros((0, 2)), [[0.0, 0.5]])
        if kind == "range_and_void":
            bad = make_round([0.0, 1.5], np.zeros((0, 2)), [[0.25, 0.5]])
        else:
            bad = make_round([0.0, 0.5, 0.5], np.zeros((0, 3)), [[0.0, 0.5, 0.5]])
        model = env.StochasticModel(
            ActionSet(2, 0), BudgetSpec(30, [0.5]), (good, bad), [0.7, 0.3]
        )
        inst = env.sample_instance(model, 30, 5)
        drawn = [t + 1 for t, r in enumerate(inst.rounds) if r is bad]
        assert len(drawn) >= 3
        issues = inst.validate().issues
        assert issues == validate_instance(inst.rounds, inst.budget, inst.actions).issues
        where = [(i.round, i.field, i.coordinate) for i in issues]
        if kind == "range_and_void":
            assert where == [(t, "reward", (1,)) for t in drawn] + [
                (t, "void_column", (0, 0)) for t in drawn
            ]
        else:
            assert where == [(t, "shape", ()) for t in drawn]

    def test_pool_is_the_rows_the_index_uses(self, tmp_path):
        sampled = _store_instances(tmp_path)["sampled"]
        assert len(sampled.pool) == 3  # support rows 1 and 3 are never drawn
        assert sorted(set(sampled.index.tolist())) == [0, 1, 2]
        r = [make_round([0.0, x], np.zeros((0, 2)), np.zeros((0, 2))) for x in (0.1, 0.2, 0.3)]
        inst = Instance.from_pool(ActionSet(2, 0), BudgetSpec(3, []), r, [2, 0, 2])
        assert inst.pool == (r[0], r[2])  # in pool order
        assert inst.index.tolist() == [1, 0, 1]
        assert all(x is y for x, y in zip(inst.rounds, (r[2], r[0], r[2])))

    def test_index_outside_pool_refused(self):
        r = make_round([0.0], np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(ValidationError):
            Instance.from_pool(ActionSet(1, 0), BudgetSpec(2, []), (r,), [0, 1])
