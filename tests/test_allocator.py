import dataclasses
import hashlib
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ora_bob as ob
from ora_bob.allocator import (
    default_config,
    default_eta,
    run,
    run_lanes,
)
from ora_bob.core import (
    EXACT_BITS,
    MAX_BUDGET,
    MAX_HORIZON,
    ActionSet,
    BudgetSpec,
    Instance,
    InstanceValidationError,
    StochasticModel,
    ValidationError,
    exact_sum,
    exact_value,
)
from ora_bob.dual_ogd import OgdConfig, learning_rate
from ora_bob.environments import build_generator, sample_instance
from ora_bob.lagrangian import penalties
from rowstacks import (consumption_stack, instance_of, model_of, rewards_stack, stacks,
                       unified_stack)


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
        unified, dual = unified_stack(inst)[0], np.array(duals)
        action = int(np.argmax(rewards_stack(inst)[0] - penalties(unified, dual)))
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


def reference_run(inst: Instance, eta: float) -> dict:
    """Plain-Python re-derivation of the controller, sharing no helpers with
    the implementation: greedy argmax of f - <lambda, g~> with first-max tie
    break, exact-rational budget gate at beta_j*T - 1, dual update
    max(0, lambda + eta*g~(played)).  Returns every per-round Trajectory
    field, as arrays of the Trajectory's shapes and dtypes, and the
    stopping time.
    """
    T, K = inst.horizon, inst.num_actions
    m, n = inst.num_general, inst.num_resources
    beta = [float(b) for b in inst.budget.per_round_budget]
    thresholds = [Fraction(b) * T - 1 for b in beta]
    lam = [0.0] * (m + n)
    spent = [Fraction(0)] * n
    cum = [0.0] * n
    out = {key: [] for key in ("actions", "candidates", "rewards", "unified_values",
                               "gate_open", "cumulative_consumption")}
    duals = [list(lam)]
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
        unified = [float(costs[i, a]) for i in range(m)]
        unified += [float(consumptions[j, a]) - beta[j] for j in range(n)]
        lam = [max(0.0, x + eta * g) for x, g in zip(lam, unified)]
        for j in range(n):
            h = float(consumptions[j, a])
            cum[j] += h
            if h:
                spent[j] += Fraction(h)
        duals.append(list(lam))
        for key, value in (("actions", a), ("candidates", best_a),
                           ("rewards", float(rewards[a])), ("unified_values", unified),
                           ("gate_open", gate_was_open), ("cumulative_consumption", list(cum))):
            out[key].append(value)
    out = {key: np.array(value) for key, value in out.items()}
    out["unified_values"] = out["unified_values"].reshape(T, m + n)
    out["cumulative_consumption"] = out["cumulative_consumption"].reshape(T, n)
    out["duals"] = np.array(duals).reshape(T + 1, m + n)
    out["stopping_time"] = int(out["gate_open"].sum())
    return out


class TestReferenceEquivalence:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10)
    def test_matches_independent_reimplementation(self, seed):
        inst = ob.random_instance(
            seed, T=50, K=4, m=2, n=2, feasibility_margin=0.1
        )
        eta = 0.02  # large enough that duals move and the gate can close
        tr = run(inst, OgdConfig(eta=eta, delta=0.05))
        ref = reference_run(inst, eta)
        assert list(tr.actions) == list(ref["actions"])
        assert np.array_equal(tr.duals, ref["duals"])

    def test_matches_on_draining_instance(self):
        inst = draining_instance(12, beta=1.0 / 3.0)
        eta = 1e-3
        tr = run(inst, OgdConfig(eta=eta, delta=0.05))
        ref = reference_run(inst, eta)
        assert list(tr.actions) == list(ref["actions"])
        assert np.array_equal(tr.duals, ref["duals"])

    @pytest.mark.parametrize(
        "make, closes",
        [
            (lambda: ob.random_instance(
                5, T=60, K=3, m=1, n=2, feasibility_margin=0.25), False),
            # beta = 1/3: the gate is decided on the exact integer path
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
        ref = reference_run(inst, config.eta)
        assert list(tr.actions) == list(ref["actions"])
        assert np.array_equal(tr.duals, ref["duals"])


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


def test_a_run_knows_its_instance():
    """A Trajectory holds its instance and the loop's state; the played
    rounds are read-only, cached lookups in the instance, re-derived for
    other candidates."""
    inst = ob.random_instance(3, T=40, K=4, m=1, n=2, feasibility_margin=0.2)
    tr = run(inst, OgdConfig(eta=0.05, delta=0.05))
    assert tr.instance is inst
    for name in ("gate_open", "actions", "rewards", "unified_values", "cumulative_consumption"):
        value = getattr(tr, name)
        assert getattr(tr, name) is value and not value.flags.writeable, name
    candidates = (tr.candidates + 1) % inst.num_actions
    other = dataclasses.replace(tr, candidates=candidates)
    assert other.instance is inst and other.stopping_time == tr.stopping_time
    actions = np.where(tr.gate_open, candidates, inst.actions.void_index)
    rounds = np.arange(inst.horizon)
    assert other.actions.tobytes() == actions.tobytes()
    assert other.rewards.tobytes() == rewards_stack(inst)[rounds, actions].tobytes()
    assert other.unified_values.tobytes() == unified_stack(inst)[rounds, :, actions].tobytes()
    played = consumption_stack(inst)[rounds, :, actions]
    assert other.cumulative_consumption.tobytes() == np.cumsum(played, axis=0).tobytes()
    assert tr.actions.tobytes() != other.actions.tobytes()
    with pytest.raises(ValidationError, match="candidates shape"):
        dataclasses.replace(tr, candidates=candidates[:-1])


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
        # beta = 1/3: the gate is decided on the exact integer path, at a
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

    def test_lanes_of_another_horizon_refused(self):
        config = OgdConfig(eta=0.01, delta=0.05)
        lanes = [sample_instance(ob.make_pacing_model(0.25), T, 0) for T in (200, 100)]
        with pytest.raises(ValidationError, match="lane 1 differs from lane 0"):
            run_lanes(lanes, config)

    def test_lanes_of_different_budgets_each_play_their_run(self):
        # played on lane 0's budget, the beta = 0.05 lane would consume 11.9
        # against its hard cap of 10
        config = OgdConfig(eta=0.01, delta=0.05)
        lanes = [sample_instance(ob.make_pacing_model(beta), 200, 0) for beta in (0.25, 0.05)]
        for inst, lane in zip(lanes, run_lanes(lanes, config)):
            assert_same_trajectory(lane, run(inst, config))
        assert lane.stopping_time < 200 and lane.cumulative_consumption[-1, 0] <= 10.0

    def test_nondyadic_draining_lane_beside_a_lane_that_never_closes(self):
        # beta = 1/3 closes its gate on the exact integer path; beta = 1
        # covers every round's consumption, so its gate stays open
        config = OgdConfig(eta=1e-5, delta=0.05)
        lanes = [sample_instance(draining_model(beta), 30, 2) for beta in (1.0 / 3.0, 1.0)]
        played = list(run_lanes(lanes, config))
        for inst, lane in zip(lanes, played):
            assert_same_trajectory(lane, run(inst, config))
        assert int(played[0].actions.sum()) == 9 and played[0].stopping_time < 30
        assert played[1].stopping_time == 30

    def sixteen_lanes(self):
        """16 sampled S = 40, T = 2000 lanes (M = 4, n = 2), their unified
        rows cached, and the schedule's config."""
        T, M, n = 2000, 4, 2
        model = ob.random_model(11, S=40, K=4, m=M - n, n=n, feasibility_margin=0.2,
                                horizon=T)
        instances = [sample_instance(model, T, seed) for seed in range(16)]
        for inst in instances:
            inst.unified_rows  # cached outside the measurement
        return instances, OgdConfig(eta=learning_rate(T, M, 0.05), delta=0.05)

    def test_batch_holds_only_the_loop_state(self):
        """Once run_lanes returns, before a lane is consumed, a batch holds
        each lane's candidates and duals, 8 + 8M bytes a lane-round; each
        lane's record, consumption totals included, is built as it is
        yielded, and is run()'s bit for bit."""
        instances, config = self.sixteen_lanes()
        T, M = instances[0].horizon, instances[0].num_constraints
        tracemalloc.start()
        try:
            lanes = run_lanes(instances, config)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= (8 + 8 * M) * len(instances) * T + 64 * 1024
        for inst, lane in zip(instances, lanes):
            assert_same_trajectory(lane, run(inst, config))

    def test_round_loop_working_set_is_fixed(self):
        """The round loop fills block buffers allocated once per call and
        reads its dual steps from one eta*U table, so above the outputs it
        holds, run_lanes peaks at about 2.4 MiB here.  Building each block's
        arrays afresh (the F and U rows, a transposed copy of U, eta*U and
        two copies of the H rows) peaked at 3.0 MiB."""
        instances, config = self.sixteen_lanes()
        tracemalloc.start()
        try:
            lanes = run_lanes(instances, config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= 2.75 * 2**20, (peak - held) / 2**20
        assert len(list(lanes)) == len(instances)

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



def _lane_digest(tr) -> str:
    """sha256 of a lane's per-round arrays as explicit little-endian bytes, so
    every platform and numpy version hashes the same values alike."""
    digest = hashlib.sha256()
    for name, dtype in (("actions", "<i8"), ("candidates", "<i8"), ("gate_open", "|b1"),
                        ("duals", "<f8"), ("rewards", "<f8"), ("unified_values", "<f8"),
                        ("cumulative_consumption", "<f8")):
        digest.update(np.ascontiguousarray(getattr(tr, name), dtype=dtype).tobytes())
    return digest.hexdigest()


def _generated(name, seeds, **params):
    """One lane per seed of a named generator: the model's sample at each
    seed, or the fixed instance itself in every lane."""
    source = build_generator(name, {k: str(v) for k, v in params.items()})
    if isinstance(source, Instance):
        return [source] * len(seeds)
    return [sample_instance(source, source.budget.horizon, s) for s in seeds]


#: name -> (lanes of one run_lanes call, eta).  The cases cover every
#: generator; R = 1, 2, 3, 8 and 16 lanes; horizons on both sides of the
#: 256-round gather blocks, and T = 1; m = n = 0, n = 0 and m = 0; draining
#: h = 1.0 lanes with an integer beta*T and with a gate closing on a block's
#: last round; beta = 1/3; lanes whose gates close in different blocks, and
#: eight whose gates close within 22 rounds; the paper's eta at T = 2000 and
#: 8000, and a large eta, for the round loop's certified segments.
ROUND_LOOP_CASES = {
    "example1_budget": (lambda: _generated("example1_budget", [0, 1], T=255), 0.02),
    "example1_general": (lambda: _generated("example1_general", [2], T=256), 0.02),
    "random": (lambda: _generated("random", [0, 1, 2], T=257, m=2, n=2, seed=4), 0.01),
    "random_model_R16": (lambda: _generated(
        "random_model", range(16), T=513, S=40, K=4, m=2, n=2, seed=3), 0.004),
    "push_pull_n0": (lambda: _generated("push_pull", [5, 6], T=513), 0.01),
    "pacing_m0": (lambda: _generated("pacing", [0, 1, 2], T=257, beta=0.3), 0.001),
    "random_model_m0": (lambda: _generated(
        "random_model", [1, 2], T=300, S=6, K=3, m=0, n=2, margin=0.05, seed=8), 0.02),
    "random_model_m0_n0": (lambda: _generated(
        "random_model", [0, 1, 2], T=257, S=5, K=3, m=0, n=0, seed=1), 0.05),
    "draining_integer_cap": (lambda: [draining_instance(256, beta=0.25)] * 2, 1e-4),
    # beta*T = 511.75: the gate closes at round 511, the last of a block
    "draining_closes_at_block_end": (lambda: [draining_instance(1024, beta=2047 / 4096)], 1e-4),
    "draining_third": (lambda: [sample_instance(draining_model(1.0 / 3.0, 513), 513, s)
                                for s in range(3)], 1e-5),
    "gates_close_in_different_blocks": (lambda: [
        sample_instance(draining_model(1.0 / 3.0, 1200), 1200, s) for s in range(16)], 1e-5),
    # the audit benchmark's shape at the paper's eta: long certified
    # segments, and both gates close late in the run
    "random_model_T8000": (lambda: _generated(
        "random_model", [0, 1], T=8000, S=40, K=4, m=2, n=2, seed=2), default_eta(8000, 4, 0.05)),
    # steady and burst near a tie once the dual settles
    "pacing_T8000": (lambda: _generated("pacing", [0], T=8000), default_eta(8000, 1, 0.05)),
    # a large step: the duals cross the candidates' tie boundaries often
    "random_model_eta_high": (lambda: _generated(
        "random_model", [0, 1], T=1000, S=12, K=4, m=2, n=2, seed=5), 0.1),
    # eight lanes whose gates all close within rounds 1403..1424 of one block
    "gates_close_together_R8": (lambda: _generated(
        "random_model", [18, 7, 25, 27, 14, 23, 35, 20], T=2000, S=40, K=4, m=2, n=2, seed=2),
        default_eta(2000, 4, 0.05)),
    "horizon_1": (lambda: _generated(
        "random_model", [0, 1, 2], T=1, S=5, K=3, m=1, n=1, seed=2), 0.05),
}

#: Per-lane digests of each case: any rewrite of the round loop must keep
#: every lane's outputs, so these never change with it.
ROUND_LOOP_DIGESTS = {
    "draining_closes_at_block_end": [
        "0b0afc81bd6791c24704c50e56d7dbc114495e1e38221269773cd4ac05c37103",
    ],
    "draining_integer_cap": [
        "56aaba387fbc2cc88f2d5062e51137f5ba7ca24a3730c94bbd525c02526a6b32",
        "56aaba387fbc2cc88f2d5062e51137f5ba7ca24a3730c94bbd525c02526a6b32",
    ],
    "draining_third": [
        "b802965fcf63259c493bee5d8c4104a37ddc5f45ea8eb2631e73b0a5f1a236f0",
        "5f8b2c3d9ff68337a5805b266c4bf0752aaa35dbf00d8dbe7e08a38e14f42ad0",
        "2947bb7babab8c54be7bad4a6d38b26046a813143419a24e606f3849c8bffd79",
    ],
    "example1_budget": [
        "e5a63c2af6e648ee42b5a692068acafe22276f190aaf5b2738f4c7ac6af9e23e",
        "e5a63c2af6e648ee42b5a692068acafe22276f190aaf5b2738f4c7ac6af9e23e",
    ],
    "example1_general": [
        "119244a393d156ce8adee68c8f40561a96731da5dc7efda9f3d420ffd1bb5181",
    ],
    "gates_close_in_different_blocks": [
        "f147f19218fd3e3c3cccb4460067d88d337b7f0b36534364c458d4c639d97c4f",
        "3bd406bf0e3f6b3362773ce19172801635fd8470f07d650ccd4cd6130e7daa44",
        "ad466e4cc645c75636e34a9ff782225ce14d302fd692178617a10f87b5d89bc6",
        "aaa06c80cae41192c216952043fc955a26b80a366881e01f21255b20f0a3e748",
        "cb07ee30537740fbe2b48c6ff98461fa34357b76573b225b6252fc633353643b",
        "030b435bd0e1097bf787309947dda608584340aad29726b2ef931c3c467c8545",
        "11c7979c952537afe8ffb581c7d1eea5bb8a794fc06d0b88608707b840ae5213",
        "333548177451c4c560e8de0c69c3ebf89718da1d064e0ae08f0bcf24edb8c81a",
        "0c0fe7d6b1b082e09bf24f0953075778ebaaafe57626954da5862bee4994f6a5",
        "8cd771566a1fcaef171ebe8617d43cee3a6ef69b099f64d8504ab1984a054905",
        "215cbd75c269ec4bef0bf0475c4db46ba84faad45257256c433b3fe6173baa56",
        "9c76225db255ad53c95f75dd38d4e0e2baf9075af77ef3f39e98868d37b3cf88",
        "39739d6311929dfd32a498626976d1ed631f9a3a3e1467d3c5e64bd0c87691ad",
        "c130f427edd4c37ee24781966db0567770b3776bcf1317101c41586e91658699",
        "2fd218a7b4f9786496125c701b144aaf81e3b1575e919c9097dfe8a4b44736be",
        "2fbce60c3c5128acabe61f1fa6d3b61f694abfbf99031c2fce8f9fa50532c711",
    ],
    "gates_close_together_R8": [
        "9d4f9dbc18731379f084bf94c570228d634b5ad85b6edea19387d8ca0fa38172",
        "cd8112daeffc9df81750ddc63184445cc045819a7067c3fac6a5ea8c95aeb28f",
        "590af7858f85800d2e22a868e5b03ffeb795f9746cfa367e1315cccaa365bf03",
        "3c281d6ddb8febd52f5aa0bcff6ebd2b80a8a1b4f82139d68ba022a0aa29af2c",
        "216ddda601f3e31432a32323219ca1a725e6b63d5938a8f66abe934f7a050672",
        "d54f556a3f060f2ad53197e845022ba0ed75e9ec9b575f7a2390dde7ffaf3f6a",
        "e1c273dab24acc1826438b0d866a6488f1c6584e4940a8df5e0cbe6522539391",
        "302f3e9cc3ea0653236aba8719f1409bd8e44c10459af418bec1e7b00404ac84",
    ],
    "horizon_1": [
        "51b4398684bac9af641fcec3f600230eb349c6ad69b57bb9f8abc8aaddc963c7",
        "51b4398684bac9af641fcec3f600230eb349c6ad69b57bb9f8abc8aaddc963c7",
        "b246134b4d6b74ac7b68f25ec55d56b43e16bdf34f4c06ab54acf8538e9bb948",
    ],
    "pacing_T8000": [
        "76df816391c3b805d4d6f3e984c60cbc36e032c9b9d82d233ce721261f7be2d8",
    ],
    "pacing_m0": [
        "34c1b08b043c791e5552d1ba8a66a74201a5b4b6b269e5b4efccaabd79281fb1",
        "6bbbbd1e78783f4f72fd595bf30ff33cee4b4f037106928dabf41e886c5270ae",
        "a1e3d85e4897d3731844f204788398bcb881404cb2b65546ddc222d7fc71adbc",
    ],
    "push_pull_n0": [
        "d75da714c49d70a0520a3eae7a82d70d0ce5e7baf5b313a1e375fe7eb28dc35b",
        "e2182c21f0012553e333b71d1aa45cb01f9079445941c0c3b4f43312764ebd3b",
    ],
    "random": [
        "0867d50169c694eb9c77ef4925a7cfa12ed6cee78dae1261e1d96e3711a1a029",
        "0867d50169c694eb9c77ef4925a7cfa12ed6cee78dae1261e1d96e3711a1a029",
        "0867d50169c694eb9c77ef4925a7cfa12ed6cee78dae1261e1d96e3711a1a029",
    ],
    "random_model_R16": [
        "9d98054a57224a76eb22d92c70a5fa578a867158ddfe64c881bb9122195e7108",
        "f6f5faf8b4d434230520b4d6227000b3580fee5b750f94189955fbc7e644a6f0",
        "02bfd827e59a6ddf706d689a57929d03b8320d2fee804d4237752ba7cb35cdff",
        "a5c1916a8d0db0e264402261c12138bb4f22ad2a6854327bbb064544a382f31c",
        "0fabb0fab8bd86aeffb02592cb068c0235de798ab984346d5ca36974aeab9564",
        "9ddb929f05860d4acd2ff50110d040ce717564ac96a9b3f1f4a3909d90f6fcc3",
        "a392fcfeb81d89c0bef40e563541d8dce9466f32b953f3713180e1204fc63500",
        "43bee9bcb38be645a97d84a5a2f61a61db05738e29af9c3986e6e2f315520f39",
        "e3726627ad3ecc2c12d2b8e2f1964cd2a85074fc4d57617659dfc80669c7ce40",
        "02d8a899f98811df447e123dd1471edd8ea197949f707a7d80336d7f21e1eb55",
        "5b3b0d2826e3d62fc050da39e89615271000903b42745478342318dd7c5b7f30",
        "75e4af8a81b9b1f8a6f10e0f2343bb3108166cfc14d1f72d80379a58fc631946",
        "8821b9cb25b55d31f99342fe8ef0559dd81304d58cd56c44024a21abf6da6925",
        "d0502a416e969dbf0b1790a54876cb0ac4b36c3fd52d82a57bdcd1a0eb7c31b2",
        "33bbd91dff66e5aa8882d9fd4fa8c19fcb66a5786d718787b04ca5c4a1140399",
        "471df195e37780b4c41ad0fe01411e4bf0c4ffac729fe76e5934028539510c89",
    ],
    "random_model_T8000": [
        "0d61a31f46e0f1128fd5f59ff458973f6bd5a834e2d789bd984c34191af798f3",
        "bc91dbee15c256c33f46a0494cb6ee4af3963b54fb3f8b9bdd3af49eea9e2f9d",
    ],
    "random_model_eta_high": [
        "686b291871f55fef58ee097655bf1b9f2a7a4406b8655c5cefdfb532b8463a50",
        "7361a4ca36fa87c234157674c17d6b81b89cfd79ee86f07d7ae0f1393eefb03f",
    ],
    "random_model_m0": [
        "5d89cad840dcd0ebc2f77dba2a410b79a78be0cffb105f3e10f24f56b04c2a54",
        "53df5ce3341f683e55de0d2b4030f8933df8ffec15c180532fbd6d83fec7af6b",
    ],
    "random_model_m0_n0": [
        "174776367fff0f5714b556ac4b9a6eb55ce46e804fbb1a105165811f2aa58a3b",
        "20392265482f6a95419ab6c56246dfade9543cfa4629e860ed889672acea30d8",
        "524c8ad969001838f0c4945df4ae3290f813cd2a94163a1e195db8e478a2e49c",
    ],
}


@pytest.mark.parametrize("case", sorted(ROUND_LOOP_CASES))
def test_round_loop_digests_frozen(case):
    make, eta = ROUND_LOOP_CASES[case]
    lanes = list(run_lanes(make(), OgdConfig(eta=eta, delta=0.05)))
    if case == "gates_close_in_different_blocks":
        assert len({lane.stopping_time // 256 for lane in lanes}) > 1
    if case == "gates_close_together_R8":
        assert {lane.stopping_time for lane in lanes} <= set(range(1403, 1425))
    assert [_lane_digest(lane) for lane in lanes] == ROUND_LOOP_DIGESTS[case]


@pytest.mark.parametrize("values", [
    np.zeros(0),
    np.array([5e-324, 1.0]),
    np.ldexp(1.0, -np.arange(1075)),  # every exponent down to 2**-1074
    np.ones(10**5),  # the int64 half-sums must not overflow
    np.where(np.arange(400) % 3 == 0, 0.0, np.random.default_rng(5).random(400)),
], ids=["empty", "subnormal_and_one", "exponents", "many_ones", "random_with_zeros"])
def test_exact_sum_is_the_rational_sum(values):
    total = Fraction(exact_sum(values), 2**EXACT_BITS)
    assert total == sum(map(Fraction, values.tolist()), Fraction(0))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.just(0.0), max_size=40))
def test_exact_sum_random(values):
    total = Fraction(exact_sum(np.array(values, dtype=np.float64)), 2**EXACT_BITS)
    assert total == sum(map(Fraction, values), Fraction(0))


@pytest.mark.parametrize("x", [
    0.0, -0.0, 5e-324, 2.0**-1022 - 5e-324, 2.0**-1022, sys.float_info.max, float(MAX_BUDGET),
    np.float64(1 / 3),
], ids=["zero", "negative_zero", "smallest_subnormal", "largest_subnormal", "smallest_normal",
        "largest_finite", "max_budget", "numpy_third"])
def test_exact_value_is_the_float_in_units(x):
    value = exact_value(x)
    assert type(value) is int and Fraction(value, 2**EXACT_BITS) == Fraction(float(x))


def test_gate_cutoff_at_the_largest_horizon():
    """The allocator's cutoff beta*T - 1, in units, and the float it is
    rounded to for the pre-filter, at beta = 1/3 and T = MAX_HORIZON."""
    beta, T = 1 / 3, MAX_HORIZON
    cutoff = exact_value(beta) * T - 2**EXACT_BITS
    assert Fraction(cutoff, 2**EXACT_BITS) == Fraction(beta) * T - 1
    assert cutoff / 2**EXACT_BITS == float(Fraction(beta) * T - 1)


# H holds -0.0, which validation accepts: a lane whose first played
# consumption is -0.0 still totals 0.0, as the loop's sums start from 0.0.
_GRID = {"F": [0.0, 0.25, 0.5, 0.75, 1.0], "G": [-1.0, -0.5, 0.0, 0.5, 1.0],
         "H": [-0.0, 0.0, 0.25, 0.5, 1.0], "beta": [0.05, 0.1, 0.25, 1 / 3, 0.5, 1.0, 1.5]}


@st.composite
def _lanes_on_a_grid(draw):
    """1-4 lanes sharing T, K and (m, n), each with its own beta and rows
    drawn from a coarse grid, so exact ties between actions are common."""
    K = draw(st.integers(1, 4))
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    T = draw(st.integers(1, 600))
    void = draw(st.integers(0, K - 1))
    instances = []
    for _ in range(draw(st.integers(1, 3))):
        beta = draw(st.lists(st.sampled_from(_GRID["beta"]), min_size=n, max_size=n))
        budget = BudgetSpec(T, [b if b * T >= 1.0 else 1.0 for b in beta])  # a valid gate
        S = draw(st.integers(1, 4))
        grid = {}
        for name, shape in (("F", (S, K)), ("G", (S, m, K)), ("H", (S, n, K))):
            flat = draw(st.lists(st.sampled_from(_GRID[name]), min_size=int(np.prod(shape)),
                                 max_size=int(np.prod(shape))))
            grid[name] = np.array(flat, dtype=np.float64).reshape(shape)
            grid[name][..., void] = 0.0
        index = np.array(draw(st.lists(st.integers(0, S - 1), min_size=T, max_size=T)))
        instances.append(Instance(ActionSet(K, void), budget, (grid["F"], grid["G"], grid["H"]),
                                  index))
    picks = draw(st.lists(st.integers(0, len(instances) - 1), min_size=1, max_size=4))
    return [instances[p] for p in picks]


#: Learning rates from 1e-4 to 1, and two at which eta * g~ is subnormal
#: (1e-310) or rounds to +-0 (5e-324): the allocator must round each dual
#: step exactly as the reference does.
_ETAS = st.one_of(st.floats(min_value=-4.0, max_value=0.0).map(lambda e: 10.0**e),
                  st.sampled_from([1e-310, 5e-324]))


@given(_lanes_on_a_grid(), _ETAS)
def test_run_lanes_matches_the_reference_loop(lanes, eta):
    config = OgdConfig(eta=eta, delta=0.05)
    for lane, tr in zip(lanes, run_lanes(lanes, config)):
        want = reference_run(lane, eta)
        assert tr.stopping_time == want.pop("stopping_time")
        assert (tr.num_general, tr.num_resources, tr.eta, tr.delta) == (
            lane.num_general, lane.num_resources, eta, 0.05)
        for key, value in want.items():
            got = getattr(tr, key)
            assert got.shape == value.shape and got.dtype == value.dtype, key
            assert got.tobytes() == value.tobytes(), key


@given(_lanes_on_a_grid(), _ETAS)
def test_no_recorded_dual_has_its_sign_bit_set(lanes, eta):
    """Trajectory.dual_l1 sums the duals as they are, which is their l1 norm
    only while none is -0.0.  Every zero general cost here is -0.0, so the
    dual step eta * g~ is -0.0 wherever it is zero."""
    signed = [Instance(lane.actions, lane.budget,
                       (lane.rows[0], np.where(lane.rows[1] == 0.0, -0.0, lane.rows[1]),
                        lane.rows[2]), lane.index) for lane in lanes]
    for tr in run_lanes(signed, OgdConfig(eta=eta, delta=0.05)):
        assert not np.signbit(tr.duals).any()
        assert tr.dual_l1.tobytes() == np.abs(tr.duals).sum(axis=1).tobytes()
