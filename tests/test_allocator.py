import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ora_bob as ob
from ora_bob.allocator import (
    default_config,
    run,
    run_lanes,
)
from ora_bob.core import (
    ActionSet,
    BudgetSpec,
    Instance,
    InstanceValidationError,
    StochasticModel,
    ValidationError,
)
from ora_bob.dual_ogd import OgdConfig, learning_rate
from ora_bob.environments import sample_instance
from ora_bob.lagrangian import penalties
from rowstacks import instance_of, model_of, stacks


def draining_instance(T: int, beta: float = 0.5, consumption: float = 1.0) -> Instance:
    """One non-void action that earns 1 and consumes ``consumption``."""
    r = ([0.0, 1.0], np.zeros((0, 2)), [[0.0, consumption]])
    return instance_of(ActionSet(2, 0), BudgetSpec(T, [beta]), (r,) * T)


def void_only_instance(T: int) -> Instance:
    r = ([0.0], np.zeros((0, 1)), np.zeros((0, 1)))
    return instance_of(ActionSet(1, 0), BudgetSpec(T, []), (r,) * T)


class TestExample1Update:
    """The round's candidate and dual update at given duals on Example 1."""

    def update(self, duals, eta=0.01):
        inst = ob.sample_instance(ob.make_example1_instance(0.1, 0.2, horizon=20).general, 20, 0)
        unified, dual = inst.unified_stack[0], np.array(duals)
        action = int(np.argmax(inst.rewards_stack[0] - penalties(unified, dual)))
        return action, np.maximum(0.0, dual + eta * unified[:, action])

    def test_compensation_update_amounts(self):
        action, new = self.update([20.0, 20.0])
        assert action == 2  # keeps violating through compensation
        assert new[0] == 20.0 + 0.01 * (0.1 + 0.2)
        assert new[1] == 20.0 - 0.01 * 1.0

    def test_dual_floor_at_zero(self):
        # at lambda ~ [20, ~0] the candidate is the safe action with unified
        # column [-0.1, -0.1]; a tiny second multiplier clamps to zero
        action, new = self.update([20.0, 0.0005])
        assert action == 1
        assert new[1] == 0.0


class TestRun:
    def test_all_void(self):
        tr = run(void_only_instance(12), OgdConfig(0.1, 0.05))
        assert tr.rewards.sum() == 0.0
        assert np.all(tr.duals == 0.0)
        assert tr.stopping_time == 12

    def test_draining_pencil_check(self):
        # beta*T = 5: the unit-consumption action is playable exactly 5 times;
        # the gate closes once cumulative consumption exceeds beta*T - 1 = 4
        tr = run(draining_instance(10), OgdConfig(eta=1e-4, delta=0.05))
        assert np.array_equal(tr.actions[:5], [1] * 5)
        assert np.array_equal(tr.actions[5:], [0] * 5)
        assert tr.stopping_time == 5
        assert tr.cumulative_consumption[-1, 0] == 5.0
        assert tr.rewards.sum() == 5.0

    def test_stopping_time_definition(self):
        tr = run(draining_instance(74), OgdConfig(eta=1e-5, delta=0.05))
        assert tr.stopping_time == 37
        assert np.all(tr.actions[37:] == 0)
        assert np.all(tr.gate_open[:37])
        assert not np.any(tr.gate_open[37:])

    def test_no_resources_stopping_time_is_horizon(self):
        fx = ob.make_example1_instance(0.1, 0.2, horizon=30)
        inst = ob.sample_instance(fx.general, 30, 0)
        tr = run(inst, default_config(inst))
        assert tr.stopping_time == 30

    def test_seeded_rerun_bit_identical(self):
        inst = ob.random_instance(99, T=200, K=4, m=2, n=2, feasibility_margin=0.2)
        config = default_config(inst, delta=0.05)
        a, b = run(inst, config), run(inst, config)
        assert np.array_equal(a.duals, b.duals)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.unified_values, b.unified_values)
        assert np.array_equal(a.cumulative_consumption, b.cumulative_consumption)

    def test_gate_closes_just_above_cutoff(self):
        # each play consumes 0.7 against the cutoff beta*T - 1 = 4: five plays
        # (3.5) leave the gate open, the sixth (4.2) crosses it by a
        # non-integer amount and shuts it
        eta = 1e-4
        tr = run(draining_instance(10, consumption=0.7), OgdConfig(eta=eta, delta=0.05))
        assert np.array_equal(tr.actions, [1] * 6 + [0] * 4)
        assert tr.stopping_time == 6
        assert 4.0 < tr.cumulative_consumption[5, 0] < 5.0
        # the void action's unified column is -beta: the multiplier decays
        for t in range(6, 10):
            assert tr.duals[t + 1, 0] == max(0.0, tr.duals[t, 0] + eta * -0.5)

    def test_invalid_instance_aborts_before_round_one(self):
        r = ([0.0, 1.5], np.zeros((0, 2)), np.zeros((0, 2)))
        inst = instance_of(ActionSet(2, 0), BudgetSpec(3, []), (r,) * 3)
        with pytest.raises(InstanceValidationError):
            run(inst, OgdConfig(0.1, 0.05))


def reference_run(inst: Instance, eta: float):
    """Plain-Python re-derivation of the controller, sharing no helpers with
    the implementation: greedy argmax of f - <lambda, g~> with first-max tie
    break, exact-rational budget gate at beta_j*T - 1, dual update
    max(0, lambda + eta*g~(played)).  Returns per-round actions and duals.
    """
    from fractions import Fraction

    T, K = inst.horizon, inst.num_actions
    m, n = inst.num_general, inst.num_resources
    beta = [float(b) for b in inst.budget.per_round_budget]
    thresholds = [Fraction(b) * T - 1 for b in beta]
    lam = [0.0] * (m + n)
    spent = [Fraction(0)] * n
    actions, duals = [], [list(lam)]
    gate_was_open = True
    for t in range(T):
        rewards, costs, consumptions = (rows[inst.index[t]] for rows in inst.rows)
        best_a, best_v = 0, None
        for a in range(K):
            penalty = 0.0
            for i in range(m):
                penalty += lam[i] * float(costs[i, a])
            for j in range(n):
                penalty += lam[m + j] * (float(consumptions[j, a]) - beta[j])
            v = float(rewards[a]) - penalty
            if best_v is None or v > best_v:
                best_a, best_v = a, v
        if gate_was_open and any(s > thr for s, thr in zip(spent, thresholds)):
            gate_was_open = False
        a = best_a if gate_was_open else inst.actions.void_index
        actions.append(a)
        new_lam = []
        for i in range(m):
            new_lam.append(max(0.0, lam[i] + eta * float(costs[i, a])))
        for j in range(n):
            g = float(consumptions[j, a]) - beta[j]
            new_lam.append(max(0.0, lam[m + j] + eta * g))
            h = float(consumptions[j, a])
            if h:
                spent[j] += Fraction(h)
        lam = new_lam
        duals.append(list(lam))
    return actions, duals


class TestReferenceEquivalence:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10)
    def test_matches_independent_reimplementation(self, seed):
        inst = ob.random_instance(
            seed, T=50, K=4, m=2, n=2, feasibility_margin=0.1
        )
        eta = 0.02  # large enough that duals move and the gate can close
        tr = run(inst, OgdConfig(eta=eta, delta=0.05))
        ref_actions, ref_duals = reference_run(inst, eta)
        assert list(tr.actions) == ref_actions
        assert np.array_equal(tr.duals, np.asarray(ref_duals))

    def test_matches_on_draining_instance(self):
        inst = draining_instance(12, beta=1.0 / 3.0)
        eta = 1e-3
        tr = run(inst, OgdConfig(eta=eta, delta=0.05))
        ref_actions, ref_duals = reference_run(inst, eta)
        assert list(tr.actions) == ref_actions
        assert np.array_equal(tr.duals, np.asarray(ref_duals))

    @pytest.mark.parametrize(
        "make, closes",
        [
            (lambda: ob.random_instance(
                5, T=60, K=3, m=1, n=2, feasibility_margin=0.25), False),
            # beta = 1/3: the gate is decided on the exact-Fraction path
            (lambda: draining_instance(30, 1.0 / 3.0), True),
            (lambda: ob.random_instance(
                13, T=60, K=3, m=1, n=2, feasibility_margin=0.25), True),
        ],
        ids=["random", "nondyadic_draining", "random_gate_closes"],
    )
    def test_matches_on_fixed_instances(self, make, closes):
        inst = make()
        config = default_config(inst, delta=0.05)
        tr = run(inst, config)
        assert (tr.stopping_time < inst.horizon) == closes
        ref_actions, ref_duals = reference_run(inst, config.eta)
        assert list(tr.actions) == ref_actions
        assert np.array_equal(tr.duals, np.asarray(ref_duals))


class TestRunInvariants:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25)
    def test_hard_budget_feasibility_exact(self, seed):
        inst = ob.random_instance(
            seed, T=80, K=4, m=2, n=2, feasibility_margin=0.2
        )
        tr = run(inst, default_config(inst, delta=0.05))
        assert np.all(tr.cumulative_consumption[-1] <= inst.budget.limits)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15)
    def test_post_tau_void_and_nonincreasing_duals(self, seed):
        # tight budgets so the gate actually closes
        inst = ob.random_instance(
            seed, T=60, K=4, m=1, n=1, feasibility_margin=0.05
        )
        tr = run(inst, OgdConfig(eta=0.01, delta=0.05))
        tau = tr.stopping_time
        assert np.all(tr.actions[tau:] == 0)
        assert np.all(tr.duals[tau + 1 :] <= tr.duals[tau:-1])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15)
    def test_telescoped_violation(self, seed):
        inst = ob.random_instance(
            seed, T=100, K=4, m=3, n=1, feasibility_margin=0.2
        )
        tr = run(inst, default_config(inst, delta=0.05))
        tau = tr.stopping_time
        sums = tr.unified_values[:tau, :3].sum(axis=0)
        caps = tr.duals[tau, :3] / tr.eta
        assert np.all(sums <= caps + 1e-9)

    def test_cumulative_consumption_nondecreasing(self):
        inst = ob.random_instance(3, T=150, K=5, m=1, n=3, feasibility_margin=0.2)
        tr = run(inst, default_config(inst))
        diffs = np.diff(tr.cumulative_consumption, axis=0)
        assert np.all(diffs >= -1e-15)

    def test_hard_cap_exact_for_nondyadic_budget(self):
        # beta = 1/3: the float product beta*T rounds upward past the exact
        # rational cap, so a float-only gate would admit one play too many.
        # The exact gate stops at 9 plays: 9 <= 30/3 - eps < 10.
        from fractions import Fraction

        beta = 1.0 / 3.0
        r = ([0.0, 1.0], np.zeros((0, 2)), [[0.0, 1.0]])
        inst = instance_of(ActionSet(2, 0), BudgetSpec(30, [beta]), (r,) * 30)
        tr = run(inst, OgdConfig(eta=1e-5, delta=0.05))
        plays = int(tr.actions.sum())
        assert plays == 9
        assert Fraction(plays) <= Fraction(beta) * 30  # exact-rational cap

    def test_gate_closes_within_one_round_of_scarcity(self):
        # h <= 1 per round plus the -1 slack: remaining budget below 1 forces
        # the gate shut no later than the next round
        inst = draining_instance(10)
        tr = run(inst, OgdConfig(eta=1e-4, delta=0.05))
        limits = inst.budget.limits
        remaining = limits[None, :] - tr.cumulative_consumption
        for t in range(inst.horizon - 1):
            if remaining[t, 0] < 1.0:
                assert not tr.gate_open[t + 1]


TRAJECTORY_ARRAYS = (
    "actions", "candidates", "rewards", "unified_values", "duals", "gate_open",
    "cumulative_consumption",
)


def assert_same_trajectory(a, b):
    for name in TRAJECTORY_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    for name in ("stopping_time", "num_general", "num_resources", "eta", "delta"):
        assert getattr(a, name) == getattr(b, name), name


def draining_model(beta: float = 1.0 / 3.0, horizon: int = 30) -> StochasticModel:
    """The draining tuple or an all-zero one, each with probability 1/2."""
    drain = ([0.0, 1.0], np.zeros((0, 2)), [[0.0, 1.0]])
    idle = ([0.0, 0.0], np.zeros((0, 2)), [[0.0, 0.0]])
    return model_of(ActionSet(2, 0), BudgetSpec(horizon, [beta]), (drain, idle), [0.5, 0.5])


def batch(source, horizon, seeds, config):
    """run_lanes over one instance per seed: the model's sample at each seed,
    or the fixed instance itself in every lane."""
    if isinstance(source, Instance):
        return run_lanes([source] * len(seeds), config)
    return run_lanes([sample_instance(source, horizon, s) for s in seeds], config)


class TestRunBatch:
    """Every lane of a run_lanes batch is bit for bit the sequential run()."""

    def check(self, source, horizon, seeds, config):
        lanes = list(batch(source, horizon, seeds, config))
        assert len(lanes) == len(seeds)
        for seed, lane in zip(seeds, lanes):
            inst = source if isinstance(source, Instance) else sample_instance(source, horizon, seed)
            assert_same_trajectory(lane, run(inst, config))
        return lanes

    def test_model_lanes_close_at_different_rounds(self):
        model = ob.random_model(11, S=40, K=4, m=2, n=2, feasibility_margin=0.2,
                                horizon=2000)
        config = OgdConfig(eta=learning_rate(2000, 4, 0.05), delta=0.05)
        lanes = self.check(model, 2000, list(range(3000, 3008)), config)
        taus = [lane.stopping_time for lane in lanes]
        assert max(taus) < 2000 and len(set(taus)) > 1

    def test_nondyadic_draining_lanes(self):
        # beta = 1/3: the gate is decided on the exact-Fraction path, at a
        # different round in each lane
        config = OgdConfig(eta=1e-5, delta=0.05)
        lanes = self.check(draining_model(), 30, list(range(6)), config)
        assert all(int(lane.actions.sum()) == 9 for lane in lanes)
        assert len({lane.stopping_time for lane in lanes}) > 1

    def test_fixed_instance_source(self):
        config = OgdConfig(eta=1e-5, delta=0.05)
        lanes = self.check(draining_instance(30, 1.0 / 3.0), 30, [0, 1, 2], config)
        assert int(lanes[0].actions.sum()) == 9

    @pytest.mark.parametrize("m, n", [(0, 2), (2, 0)], ids=["m0", "n0"])
    def test_empty_constraint_blocks(self, m, n):
        model = ob.random_model(8, S=6, K=3, m=m, n=n, feasibility_margin=0.2,
                                horizon=300)
        config = OgdConfig(eta=0.05, delta=0.05)
        self.check(model, 300, [4, 5, 6], config)

    def test_random_instance_source(self):
        # a fixed instance whose pool has one row per round, over several
        # gather blocks, with a gate that closes
        inst = ob.random_instance(13, T=600, K=3, m=1, n=2, feasibility_margin=0.25)
        assert inst.rows[0].shape[0] == inst.horizon
        lanes = self.check(inst, 600, [0, 1], default_config(inst, delta=0.05))
        assert lanes[0].stopping_time == 574

    def test_lanes_drawing_different_rows(self):
        # short lanes over a large support each read their own set of rows
        model = ob.random_model(10, S=30, K=4, m=1, n=1, feasibility_margin=0.2,
                                horizon=20)
        seeds = list(range(5))
        used = {sample_instance(model, 20, s).rows[0].tobytes() for s in seeds}
        assert len(used) == len(seeds)
        self.check(model, 20, seeds, OgdConfig(eta=0.05, delta=0.05))

    def test_lanes_of_another_budget_or_horizon_refused(self):
        # played on lane 0's budget, the beta = 0.05 lane would consume 11.9
        # against its hard cap of 10
        config = OgdConfig(eta=0.01, delta=0.05)
        paced = sample_instance(ob.make_pacing_model(beta=0.25), 200, 0)
        for other in (sample_instance(ob.make_pacing_model(beta=0.05), 200, 0),
                      sample_instance(ob.make_pacing_model(beta=0.25), 100, 0)):
            with pytest.raises(ValidationError, match="lane 1 differs from lane 0"):
                run_lanes([paced, other], config)

    def test_single_lane(self):
        model = ob.random_model(9, S=7, K=4, m=1, n=2, feasibility_margin=0.2,
                                horizon=400)
        self.check(model, 400, [11], OgdConfig(eta=0.02, delta=0.05))

    def test_invalid_lane_raises_as_run_does(self):
        good = ([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])
        bad = ([0.0, 1.5], np.zeros((0, 2)), [[0.0, 0.5]])
        config = OgdConfig(eta=0.01, delta=0.05)
        model = model_of(ActionSet(2, 0), BudgetSpec(20, [0.5]), (good, bad), [0.5, 0.5])
        with pytest.raises(InstanceValidationError) as sequential:
            run(sample_instance(model, 20, 3), config)
        with pytest.raises(InstanceValidationError) as batched:
            list(batch(model, 20, [3, 4], config))
        assert str(batched.value) == str(sequential.value)
        # a support tuple no lane draws cannot fail a lane
        never = model_of(ActionSet(2, 0), BudgetSpec(20, [0.5]), (good, bad), [1.0, 0.0])
        assert not never.validate().ok
        self.check(never, 20, [3, 4], config)
        # consumption rows over another action count are refused when the
        # model is built
        f, g, _ = stacks((good, bad))
        odd = np.zeros((2, 1, 3))
        with pytest.raises(ValidationError, match="action columns"):
            StochasticModel(ActionSet(2, 0), BudgetSpec(20, [0.5]), (f, g, odd), [1.0, 0.0])
