import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ora_bob as ob
from ora_bob import rng
from ora_bob.core import ActionSet, BudgetSpec, Instance, ValidationError
from ora_bob.environments import make_example1_instance, random_model, sample_instance
from ora_bob.oracles import (
    SizeGuardError,
    _exceeds_guard,
    alpha,
    opt_bruteforce,
    opt_lp_relax,
    opt_stoc_estimate,
    slater_adv,
    slater_adv_bruteforce,
    slater_stoc,
)
from rowstacks import (
    consumption_stack, general_stack, instance_of, model_of, rewards_stack, unified_stack,
)


def tiny_instance(seed, T=4, K=3, m=2, n=1, margin=0.25):
    return ob.random_instance(seed, T=T, K=K, m=m, n=n, feasibility_margin=margin)


def safe_sequence(inst):
    """Per-round actions whose worst unified entry is least (lowest index on
    ties): the sequence that certifies slater_adv."""
    return unified_stack(inst).max(axis=1).argmin(axis=1)


class TestOptBruteforce:
    def test_zero_rewards(self):
        r = ([0.0, 0.0], [[0.0, 0.5]], np.zeros((0, 2)))
        inst = instance_of(ActionSet(2, 0), BudgetSpec(3, []), (r,) * 3)
        rep = opt_bruteforce(inst)
        assert rep.opt_value == 0.0

    def test_single_round_infeasible_action(self):
        # the only rewarding action violates sum g <= 0, so OPT = 0
        r = ([0.0, 1.0], [[0.0, 0.5]], np.zeros((0, 2)))
        inst = instance_of(ActionSet(2, 0), BudgetSpec(1, []), (r,))
        rep = opt_bruteforce(inst)
        assert rep.opt_value == 0.0
        assert rep.opt_actions == (0,)

    def test_example1_general_three_rounds(self):
        fx = make_example1_instance(0.1, 0.2, horizon=20)
        inst = sample_instance(fx.general, 3, 0)
        rep = opt_bruteforce(inst)
        assert rep.opt_value == 3.0
        assert rep.opt_actions == (1, 1, 1)

    def test_budget_cap_respected(self):
        # unit consumption, beta*T = 2: at most 2 plays of the earner
        r = ([0.0, 1.0], np.zeros((0, 2)), [[0.0, 1.0]])
        inst = instance_of(ActionSet(2, 0), BudgetSpec(4, [0.5]), (r,) * 4)
        rep = opt_bruteforce(inst)
        assert rep.opt_value == 2.0

    def test_lexicographically_smallest_argmax(self):
        # two actions with equal rewards: the all-first sequence wins ties
        r = ([0.0, 0.5, 0.5], np.zeros((0, 3)), np.zeros((0, 3)))
        inst = instance_of(ActionSet(3, 0), BudgetSpec(2, []), (r,) * 2)
        rep = opt_bruteforce(inst)
        assert rep.opt_actions == (1, 1)

    def test_size_guard(self):
        inst = tiny_instance(0, T=30, K=4)
        with pytest.raises(SizeGuardError) as info:
            opt_bruteforce(inst, guard=1000)
        assert str(info.value) == (
            "brute-force optimum over 4^30 sequences exceeds the guard of 1000 nodes; "
            "refusing rather than silently approximating"
        )


class TestSizeGuard:
    """K**T > guard is decided without building K**T."""

    def test_exact_boundary(self):
        assert not _exceeds_guard(10, 7, 10**7)
        assert _exceeds_guard(10, 8, 10**7)

    def test_single_action_never_exceeds(self):
        assert not _exceeds_guard(1, 10**12, 10**7)

    def test_huge_power_refused_at_once(self):
        # 3**10**12 has about 4.8e11 digits; building it would not finish
        assert _exceeds_guard(3, 10**12, 10**7)


class TestOptLpRelax:
    def test_slack_constraints_hit_per_round_max(self):
        # plenty of budget: LP = sum of per-round best rewards
        r = ([0.0, 0.8, 0.3], np.zeros((0, 3)), [[0.0, 0.1, 0.1]])
        inst = instance_of(ActionSet(3, 0), BudgetSpec(5, [0.9]), (r,) * 5)
        rep = opt_lp_relax(inst)
        assert rep.opt_value == pytest.approx(5 * 0.8, abs=1e-9)

    def test_void_only(self):
        r = ([0.0], np.zeros((0, 1)), np.zeros((0, 1)))
        inst = instance_of(ActionSet(1, 0), BudgetSpec(4, []), (r,) * 4)
        assert opt_lp_relax(inst).opt_value == pytest.approx(0.0, abs=1e-12)

    def test_sandwich_on_fifty_instances(self):
        for seed in range(50):
            inst = tiny_instance(seed)
            bf = opt_bruteforce(inst).opt_value
            lp = opt_lp_relax(inst).opt_value
            assert lp >= bf - 1e-7 * max(1.0, abs(bf)), (seed, bf, lp)

    def test_grouping_is_exact(self):
        # a sequence with many repeated rounds: grouped LP equals the LP on
        # the same instance with every round forced into its own group
        fx = make_example1_instance(0.1, 0.2, horizon=20)
        inst = sample_instance(fx.general, 6, 0)
        grouped = opt_lp_relax(inst).opt_value

        from ora_bob import oracles

        original = oracles._grouped_rounds
        try:
            oracles._grouped_rounds = lambda ins: (
                np.arange(ins.horizon, dtype=np.int64),
                np.ones(ins.horizon),
            )
            ungrouped = opt_lp_relax(inst).opt_value
        finally:
            oracles._grouped_rounds = original
        assert grouped == pytest.approx(ungrouped, rel=1e-9, abs=1e-9)

    def test_size_guard_refuses_dense_tableau(self):
        # every round distinct: the dense tableau would take ~2.4 GiB
        inst = tiny_instance(0, T=8000, K=4, m=1, n=1)
        with pytest.raises(SizeGuardError, match="MiB"):
            opt_lp_relax(inst)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_highs(self, seed):
        optimize = pytest.importorskip("scipy.optimize")
        model = random_model(seed, S=30, K=4, m=2, n=2, feasibility_margin=0.1)
        inst = ob.sample_instance(model, 150, seed)
        T, K = inst.horizon, inst.num_actions
        coupling = np.concatenate([general_stack(inst), consumption_stack(inst)], axis=1)
        res = optimize.linprog(
            -rewards_stack(inst).reshape(-1),
            A_ub=coupling.transpose(1, 0, 2).reshape(-1, T * K),
            b_ub=np.concatenate([np.zeros(inst.num_general), inst.budget.limits]),
            A_eq=np.kron(np.eye(T), np.ones(K)),
            b_eq=np.ones(T),
            method="highs",
        )
        assert res.status == 0
        assert opt_lp_relax(inst).opt_value == pytest.approx(-res.fun, rel=1e-9)


class TestOptStocEstimate:
    def test_degenerate_model_zero_stderr(self):
        fx = make_example1_instance(0.1, 0.2, horizon=20)
        rep = opt_stoc_estimate(fx.general, T=3, num_samples=5, seed=1)
        assert rep.opt_value == 3.0
        assert rep.stderr == 0.0
        assert rep.method == "monte_carlo"
        assert rep.per_draw_method == "brute_force"

    def test_stderr_scales_like_inverse_sqrt(self):
        model = random_model(5, S=3, K=3, m=1, n=1, feasibility_margin=0.3)
        reps = {
            ns: opt_stoc_estimate(model, T=5, num_samples=ns, seed=9)
            for ns in (25, 100, 400)
        }
        r1 = reps[25].stderr / reps[100].stderr
        r2 = reps[100].stderr / reps[400].stderr
        assert abs(r1 - 2.0) <= 0.6  # within 30% of the predicted halving
        assert abs(r2 - 2.0) <= 0.6

    def test_doubling_samples_extends_the_stream(self):
        from ora_bob.oracles import _MC_STREAM_SALT

        model = random_model(5, S=3, K=3, m=1, n=1, feasibility_margin=0.3)
        draws = [
            opt_bruteforce(
                ob.sample_instance(model, 4, rng.derive_seed(7, _MC_STREAM_SALT + i))
            ).opt_value
            for i in range(10)
        ]
        # the estimator at N=5 averages exactly the first five draws of N=10
        rep5 = opt_stoc_estimate(model, T=4, num_samples=5, seed=7)
        rep10 = opt_stoc_estimate(model, T=4, num_samples=10, seed=7)
        assert rep5.opt_value == float(np.mean(draws[:5]))
        assert rep10.opt_value == float(np.mean(draws))


class TestSlaterAdv:
    def test_one_round_two_actions(self):
        r = (
            [0.0, 0.0, 0.0],
            [[0.0, -0.3, 0.5], [0.0, -0.2, -0.9]],
            np.zeros((0, 3)),
        )
        inst = instance_of(ActionSet(3, 0), BudgetSpec(1, []), (r,))
        # action columns {[-0.3,-0.2], [0.5,-0.9]}: min over x of max_i = -0.2
        assert slater_adv(inst) == pytest.approx(0.2, abs=1e-15)

    def test_void_only_with_general_rows_gives_zero(self):
        r = ([0.0], [[0.0], [0.0]], np.zeros((0, 1)))
        inst = instance_of(ActionSet(1, 0), BudgetSpec(3, []), (r,) * 3)
        assert slater_adv(inst) == 0.0

    def test_generator_margin(self):
        inst = tiny_instance(3, T=20, margin=0.2)
        assert slater_adv(inst) >= 0.2

    def test_decomposition_matches_bruteforce_exactly(self):
        for seed in range(10):
            inst = tiny_instance(seed, T=6, K=4, m=2, n=1)
            assert slater_adv(inst) == slater_adv_bruteforce(inst)

    def test_safe_sequence_certifies_rho(self):
        inst = tiny_instance(7, T=12, K=4, m=2, n=2)
        rho = slater_adv(inst)
        safe = safe_sequence(inst)
        for t in range(inst.horizon):
            col = unified_stack(inst)[t, :, safe[t]]
            assert np.all(col <= -rho + 1e-15)


class TestSlaterStoc:
    def test_single_support_reduces_to_adv(self):
        model = random_model(2, S=1, K=4, m=2, n=1, feasibility_margin=0.2, horizon=10)
        inst = ob.sample_instance(model, 1, 0)
        assert slater_stoc(model) == slater_adv(inst)

    def test_two_safe_tuples(self):
        model = random_model(6, S=2, K=3, m=2, n=1, feasibility_margin=0.3)
        assert slater_stoc(model) >= 0.3

    def test_budget_only_equals_min_beta(self):
        # with m=0, the constant void policy is optimal: rho = min_j beta_j
        r1 = ([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.6], [0.0, 0.2]])
        r2 = ([0.0, 0.5], np.zeros((0, 2)), [[0.0, 0.1], [0.0, 0.9]])
        model = model_of(ActionSet(2, 0), BudgetSpec(10, [0.5, 0.25]), (r1, r2), [0.5, 0.5])
        assert slater_stoc(model) == 0.25

    def test_policy_guard(self):
        model = random_model(2, S=20, K=5, m=1, n=1, feasibility_margin=0.2)
        with pytest.raises(SizeGuardError):
            slater_stoc(model, guard=1000)


def test_slater_oracles_refuse_an_empty_constraint_set():
    inst = tiny_instance(3, m=0, n=0)
    model = random_model(3, S=3, K=3, m=0, n=0, feasibility_margin=0.2)
    for oracle, source in ((slater_adv, inst), (slater_adv_bruteforce, inst),
                           (slater_stoc, model)):
        with pytest.raises(ValidationError, match="constraint set is empty"):
            oracle(source)


class TestAlpha:
    def test_values(self):
        assert alpha(0.25) == 0.2
        assert alpha(0.0) == 0.0
        assert alpha(1.0) == 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            alpha(-0.1)


class TestCrossProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15)
    def test_sandwich_property(self, seed):
        inst = tiny_instance(seed, T=3, K=3, m=1, n=1)
        bf = opt_bruteforce(inst).opt_value
        lp = opt_lp_relax(inst).opt_value
        assert lp >= bf - 1e-7 * max(1.0, abs(bf))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10)
    def test_budget_monotonicity(self, seed):
        inst = tiny_instance(seed, T=3, K=3, m=1, n=2, margin=0.2)
        grown = Instance(
            inst.actions,
            BudgetSpec(inst.horizon, inst.budget.per_round_budget * 1.5),
            inst.rows,
            inst.index,
        )
        assert opt_bruteforce(grown).opt_value >= opt_bruteforce(inst).opt_value
        assert slater_adv(grown) >= slater_adv(inst)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15)
    def test_mixing_feasibility(self, seed):
        # alpha-weighted mix of the optimal and the strictly safe sequences
        # is feasible per round and constraint: alpha*g~(x*) + (1-alpha)*g~(x0) <= 0
        inst = tiny_instance(seed, T=3, K=3, m=2, n=1, margin=0.2)
        rho = slater_adv(inst)
        a = alpha(rho)
        best = opt_bruteforce(inst).opt_actions
        safe = safe_sequence(inst)
        for t in range(inst.horizon):
            star = unified_stack(inst)[t, :, best[t]]
            circ = unified_stack(inst)[t, :, safe[t]]
            assert np.all(a * star + (1.0 - a) * circ <= 1e-12)


def test_equal_bytes_pool_rows_merge_in_lp():
    """Distinct rows with equal bytes are one LP group, so the LP value is
    bitwise the one over a single shared row."""
    def tup():
        return ([0.0, 0.7, 0.4], [[0.0, 0.5, -0.25]], [[0.0, 0.9, 0.3]])

    a, b, c = tup(), tup(), ([0.0, 0.2, 0.9], [[0.0, -0.5, 0.5]], [[0.0, 0.1, 0.8]])
    budget = BudgetSpec(6, [0.4])
    split = instance_of(ActionSet(3, 0), budget, (a, b, c, b, a, c))
    shared = Instance(ActionSet(3, 0), budget, split.rows, [0, 0, 2, 0, 0, 2])
    assert split.rows[0].shape[0] == 6 and shared.rows[0].shape[0] == 2
    from ora_bob import oracles

    reps, counts = oracles._grouped_rounds(split)
    assert reps.tolist() == [0, 2] and counts.tolist() == [4.0, 2.0]
    assert opt_lp_relax(split).opt_value == opt_lp_relax(shared).opt_value
