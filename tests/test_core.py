import numpy as np
import pytest
from hypothesis import given, strategies as st

from ora_bob import environments as env
from ora_bob.core import (
    ActionSet,
    BudgetSpec,
    Instance,
    StochasticModel,
    ValidationError,
)
from ora_bob.oracles import opt_lp_relax
from ora_bob.serialization import instance_hash, load_instance, save_instance
from rowstacks import (
    STACKS,
    consumption_stack,
    instance_of,
    model_of,
    rewards_stack,
    unified_rows,
    unified_stack,
)


def make_round(f, g, h):
    """One round's rewards (K,), general costs (m, K) and consumptions (n, K)."""
    return tuple(np.asarray(x, dtype=np.float64) for x in (f, g, h))


def unify(r, budget):
    """The (M, K) unified matrix of one round's inputs under ``budget``."""
    return unified_rows(r[1][None], r[2][None], budget.per_round_budget)[0]


def validate(rounds, budget, actions):
    return instance_of(actions, budget, rounds).validate()


def rounds_of(inst):
    """Each round's (f, g, h), read row by row through the index."""
    return [tuple(x[i] for x in inst.rows) for i in inst.index.tolist()]


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
            instance_of(ActionSet(2, 0), BudgetSpec(1, [0.5, 0.5]), (r,))

    def test_linearity_in_consumption(self):
        # doubling a consumption entry doubles the shifted entry plus the
        # beta offset bookkeeping; dyadic values keep the check exact
        beta = BudgetSpec(20, [0.25])
        r1 = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.25]])
        r2 = make_round([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])
        u1 = unify(r1, beta)[0, 1]
        u2 = unify(r2, beta)[0, 1]
        assert u2 == 2.0 * (u1 + 0.25) - 0.25


ROW_SHAPE_BREACHES = {
    # id: ((F, G, H) shapes, round index, probabilities, message)
    "action_columns": (((1, 2), (1, 1, 3), (1, 0, 2)), [0, 0, 0], [1.0],
                       r"general_costs has 3 action columns \(axis 2\), rewards has 2"),
    "row_count": (((2, 2), (1, 1, 2), (2, 0, 2)), [0, 1, 1], [0.5, 0.5],
                  r"general_costs has 1 rows \(axis 0\), rewards has 2"),
    "flat_rewards": (((2,), (1, 0, 2), (1, 0, 2)), [0, 0, 0], [1.0],
                     r"rewards must be a 2-D \(S, K\) stack with S >= 1, got shape \(2,\)"),
    "no_rows": (((0, 2), (0, 0, 2), (0, 0, 2)), [0, 0, 0], [],
                r"rewards must be a 2-D \(S, K\) stack with S >= 1, got shape \(0, 2\)"),
    "flat_costs": (((1, 2), (1, 2), (1, 0, 2)), [0, 0, 0], [1.0],
                   r"general_costs must be a 3-D \(S, m, K\) stack, got shape \(1, 2\)"),
    "consumption_columns": (((1, 2), (1, 0, 2), (1, 0, 3)), [0, 0, 0], [1.0],
                            r"consumptions has 3 action columns \(axis 2\), rewards has 2"),
}


class TestRowStore:
    @pytest.mark.parametrize("breach", sorted(ROW_SHAPE_BREACHES))
    def test_shape_errors_name_axis(self, breach):
        shapes, index, probs, message = ROW_SHAPE_BREACHES[breach]
        rows = tuple(np.zeros(shape) for shape in shapes)
        actions, budget = ActionSet(2, 0), BudgetSpec(3, [])
        with pytest.raises(ValidationError, match=message):
            Instance(actions, budget, rows, index)
        with pytest.raises(ValidationError, match=message):
            StochasticModel(actions, budget, rows, probs)

    def test_immutability(self):
        rows = (np.array([[0.0, 1.0]]), np.array([[[0.0, 0.5]]]), np.array([[[0.0, 0.5]]]))
        actions, budget = ActionSet(2, 0), BudgetSpec(2, [0.5])
        inst = Instance(actions, budget, rows, [0, 0])
        model = StochasticModel(actions, budget, rows, [1.0])
        for array in (*inst.rows, inst.index, *model.rows, model.probs):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0
        rows[0][0, 1] = 0.25  # the stores hold copies of the caller's arrays
        assert inst.rows[0][0, 1] == model.rows[0][0, 1] == 1.0


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
        """Rows whose K is not the action set's, or whose n is not the
        budget's, are refused at construction with the axis named."""
        a = make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((0, 2)))
        b = make_round([0.0, 1.0, 0.2], np.zeros((0, 3)), np.zeros((0, 3)))
        k_axis = r"rewards has K=3 action columns \(axis 1\), the action set has K=2"
        n_axis = r"consumptions has n=0 resource rows \(axis 1\), the budget has n=1"
        for budget, rounds, message in (
            (BudgetSpec(2, []), (b, b), k_axis),
            (BudgetSpec(2, [0.5]), (a, a), n_axis),
        ):
            with pytest.raises(ValidationError, match=message):
                instance_of(ActionSet(2, 0), budget, rounds)
            with pytest.raises(ValidationError, match=message):
                model_of(ActionSet(2, 0), budget, rounds[:1], [1.0])

    def test_nan_is_flagged(self):
        bad = make_round([0.0, float("nan")], np.zeros((0, 2)), np.zeros((0, 2)))
        report = validate([bad], BudgetSpec(1, []), ActionSet(2, 0))
        assert not report.ok


class TestInstance:
    def test_horizon_mismatch(self):
        r = make_round([0.0], np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(ValidationError):
            instance_of(ActionSet(1, 0), BudgetSpec(3, []), (r,))

    def test_unified_stack_matches_per_round(self):
        r1 = make_round([0.0, 1.0], [[0.0, 0.4]], [[0.0, 0.7]])
        r2 = make_round([0.0, 0.3], [[0.0, -0.9]], [[0.0, 0.1]])
        inst = instance_of(ActionSet(2, 0), BudgetSpec(2, [0.5]), (r1, r2))
        for t in (1, 2):
            expected = unify((r1, r2)[t - 1], inst.budget)
            assert np.array_equal(unified_stack(inst)[t - 1], expected)


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
    model = env.random_model(4, S=5, K=3, m=1, n=2, feasibility_margin=0.2,
                             horizon=40)
    path = tmp_path / "inst.json"
    save_instance(env.random_instance(5, 12, 3, 2, 1, 0.2), path)
    return {
        "random": env.random_instance(3, 30, 4, 2, 2, 0.2),
        # support rows 1 and 3 are never drawn
        "sampled": env.sample_instance(StochasticModel(
            model.actions, model.budget, model.rows, [0.4, 0.0, 0.3, 0.0, 0.3]), 60, 9),
        "constant": env.sample_instance(StochasticModel(
            model.actions, model.budget, tuple(r[:1] for r in model.rows), [1.0]), 25, 0),
        "file_loaded": load_instance(path),
        "m0": env.sample_instance(
            env.random_model(6, S=4, K=3, m=0, n=2, feasibility_margin=0.2), 50, 1),
        "n0": env.sample_instance(
            env.random_model(7, S=4, K=3, m=2, n=0, feasibility_margin=0.2), 50, 2),
    }


class TestRoundStore:
    @pytest.mark.parametrize(
        "name", ["random", "sampled", "constant", "file_loaded", "m0", "n0"]
    )
    def test_stacks_are_bitwise_stacks_of_rounds(self, tmp_path, name):
        inst = _store_instances(tmp_path)[name]
        rounds = rounds_of(inst)
        assert len(rounds) == inst.horizon
        expected = {
            "rewards_stack": np.stack([r[0] for r in rounds]),
            "general_stack": np.stack([r[1] for r in rounds]),
            "consumption_stack": np.stack([r[2] for r in rounds]),
            "unified_stack": np.stack(
                [unify(r, inst.budget) for r in rounds]
            ),
        }
        for attr, want in expected.items():
            got = STACKS[attr](inst)
            assert got.shape == want.shape and got.dtype == want.dtype, attr
            assert got.tobytes() == want.tobytes(), attr
            assert not got.flags.writeable

    def test_rounds_are_the_input_rows(self):
        """Rows given one per round stay one per round, equal bytes or not,
        and a sampled round reads the support row it drew."""
        a = make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((0, 2)))
        b = make_round([0.0, 1.0], np.zeros((0, 2)), np.zeros((0, 2)))  # equal bytes
        rounds = (a, b, a, a, b)
        inst = instance_of(ActionSet(2, 0), BudgetSpec(5, []), rounds)
        assert inst.index.tolist() == [0, 1, 2, 3, 4]
        assert inst.rows[0].shape[0] == 5
        assert not inst.index.flags.writeable
        assert not any(r.flags.writeable for r in inst.rows)
        assert all(x[0].tobytes() == y[0].tobytes() for x, y in zip(rounds_of(inst), rounds))
        model = env.random_model(2, S=6, K=3, m=1, n=1, feasibility_margin=0.2)
        sampled = env.sample_instance(model, 50, 4)
        draws = env.sample_support_indices(model, 50, 4)
        assert consumption_stack(sampled).tobytes() == model.rows[2][draws].tobytes()

    @pytest.mark.parametrize("kind", ["range_and_void"])
    def test_sampled_bad_row_issues_match_round_by_round(self, kind):
        good = make_round([0.0, 0.5], np.zeros((0, 2)), [[0.0, 0.5]])
        bad = make_round([0.0, 1.5], np.zeros((0, 2)), [[0.25, 0.5]])
        model = model_of(ActionSet(2, 0), BudgetSpec(30, [0.5]), (good, bad), [0.7, 0.3])
        inst = env.sample_instance(model, 30, 5)
        drawn = [t + 1 for t, d in enumerate(env.sample_support_indices(model, 30, 5)) if d]
        assert len(drawn) >= 3
        issues = inst.validate().issues
        # one row per round: the rows checked round by round
        assert issues == validate(rounds_of(inst), inst.budget, inst.actions).issues
        where = [(i.round, i.field, i.coordinate) for i in issues]
        assert where == [(t, "reward", (1,)) for t in drawn] + [
            (t, "void_column", (0, 0)) for t in drawn
        ]

    def test_pool_is_the_rows_the_index_uses(self, tmp_path):
        sampled = _store_instances(tmp_path)["sampled"]
        assert sampled.rows[0].shape[0] == 3  # rows 1, 3 never drawn
        assert sorted(set(sampled.index.tolist())) == [0, 1, 2]
        rows = ([[0.0, 0.1], [0.0, 0.2], [0.0, 0.3]], np.zeros((3, 0, 2)), np.zeros((3, 0, 2)))
        inst = Instance(ActionSet(2, 0), BudgetSpec(3, []), rows, [2, 0, 2])
        assert inst.rows[0].tolist() == [[0.0, 0.1], [0.0, 0.3]]  # in row order
        assert inst.index.tolist() == [1, 0, 1]
        assert rewards_stack(inst)[:, 1].tolist() == [0.3, 0.1, 0.3]

    def test_index_outside_pool_refused(self):
        rows = (np.zeros((1, 1)), np.zeros((1, 0, 1)), np.zeros((1, 0, 1)))
        for index in ([0, 1], [-1, 0]):
            with pytest.raises(ValidationError, match="outside the 1 rows"):
                Instance(ActionSet(1, 0), BudgetSpec(2, []), rows, index)

    @pytest.mark.parametrize(
        "name", ["random", "sampled", "constant", "file_loaded", "m0", "n0"]
    )
    def test_rebuilt_from_rounds_is_bitwise_the_same(self, tmp_path, name):
        inst = _store_instances(tmp_path)[name]
        rebuilt = instance_of(inst.actions, inst.budget, rounds_of(inst))
        assert rebuilt.rows[0].shape[0] == inst.horizon  # one row per round
        for attr in ("rewards_stack", "general_stack", "consumption_stack", "unified_stack"):
            assert STACKS[attr](rebuilt).tobytes() == STACKS[attr](inst).tobytes(), attr
        assert instance_hash(rebuilt) == instance_hash(inst)
        assert opt_lp_relax(rebuilt).opt_value == opt_lp_relax(inst).opt_value
