import dataclasses
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ora_bob as ob
from ora_bob.core import ValidationError
from ora_bob.allocator import default_eta
from ora_bob.dual_ogd import (
    AUDIT_SLACK,
    DETERMINISTIC_AUDITS,
    OgdConfig,
    dual_drift,
    dual_penalty,
    interval_regret_audit,
    learning_rate,
    sample_comparator_pairs,
    telescoped_violation,
)
from rowstacks import instance_of, model_of


def decimal_learning_rate(T: int, M: int, delta: str) -> float:
    """Independent high-precision oracle for the schedule."""
    getcontext().prec = 50
    arg = Decimal(2) * Decimal(T) * (Decimal(T * T) / Decimal(delta)).ln()
    return float(Decimal(1) / (Decimal(60 * M) * arg.sqrt()))


class TestLearningRate:
    def test_derived_value_large(self):
        # frozen from the decimal oracle at 50 digits
        expected = 8.488659829681701e-06
        assert decimal_learning_rate(10_000, 3, "0.05") == pytest.approx(
            expected, rel=1e-12
        )
        assert learning_rate(10_000, 3, 0.05) == pytest.approx(expected, rel=1e-12)

    def test_derived_value_small(self):
        expected = 1.7366444374442097e-04
        assert decimal_learning_rate(100, 2, "0.1") == pytest.approx(expected, rel=1e-12)
        assert learning_rate(100, 2, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_doubling_m_halves_rate_exactly(self):
        for T, M, delta in ((100, 1, 0.05), (2000, 3, 0.01), (50_000, 2, 0.5)):
            assert learning_rate(T, 2 * M, delta) == learning_rate(T, M, delta) / 2.0

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            learning_rate(1, 2, 0.05)
        with pytest.raises(ValidationError):
            learning_rate(100, 2, 0.0)
        with pytest.raises(ValidationError):
            learning_rate(100, 2, 1.0)
        with pytest.raises(ValidationError):
            learning_rate(100, 0, 0.05)


class TestOgdConfig:
    def test_requires_positive_eta(self):
        with pytest.raises(ValidationError):
            OgdConfig(eta=0.0)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 1e308, 2.0**64 * (1 + 2**-52)])
    def test_refuses_eta_outside_its_range(self, eta):
        # 1e308 overflowed the allocator's certification margins
        with pytest.raises(ValidationError, match="eta must be in"):
            OgdConfig(eta=eta)
        assert OgdConfig(eta=2.0**64).eta == 2.0**64

    def test_requires_delta_in_unit_interval(self):
        with pytest.raises(ValidationError):
            OgdConfig(eta=0.1, delta=1.0)


def dual_step(lam, gradient, eta):
    """The projected ascent step the allocator takes inline."""
    return np.maximum(0.0, np.asarray(lam) + eta * np.asarray(gradient))


class TestOgdStep:
    def test_plain_step(self):
        out = dual_step([0.5, 0.2], [1.0, -1.0], 0.1)
        assert np.array_equal(out, [0.6, 0.1])

    def test_projection_clamps_both(self):
        out = dual_step([0.05, 0.0], [-1.0, -1.0], 0.1)
        assert np.array_equal(out, [0.0, 0.0])

    def test_void_column_keeps_zero_duals(self):
        # void unified column is all <= 0 (zeros and -beta), so lambda stays 0
        out = dual_step([0.0, 0.0, 0.0], [0.0, -0.3, -0.7], 0.05)
        assert np.array_equal(out, [0.0, 0.0, 0.0])

    def test_never_mutates_input(self, random_trajectory):
        # each round's update writes a new row: the duals a decision saw are
        # still the ones recorded, and lambda_1 is still 0
        tr = random_trajectory
        assert not np.any(tr.duals[0])
        assert np.array_equal(tr.duals[1:], dual_step(tr.duals[:-1], tr.unified_values, tr.eta))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_nonnegativity(self, lam, seed, eta):
        from ora_bob import rng

        g = 2.0 * rng.uniforms(seed, 0, np.arange(len(lam))) - 1.0
        out = dual_step(lam, g, eta)
        assert np.all(out >= 0.0)


@pytest.fixture(scope="module")
def random_trajectory():
    inst = ob.random_instance(2024, T=300, K=4, m=2, n=1, feasibility_margin=0.2)
    config = OgdConfig(learning_rate(300, 3, 0.05), 0.05)
    return ob.run(inst, config)


class TestIntervalRegret:
    def test_comparator_equal_to_lambda_t1(self, random_trajectory):
        tr = random_trajectory
        res = interval_regret_audit(tr, tr.duals[99], 100, 250)
        # quadratic term vanishes: rhs = sum <lambda_t1, g~_t> - (eta/2) T M
        grads = tr.unified_values[99:250].sum(axis=0)
        expected_rhs = float(tr.duals[99] @ grads) - 0.5 * tr.eta * tr.horizon * 3
        assert res.rhs == pytest.approx(expected_rhs, rel=1e-12)
        assert res.holds

    def test_zero_comparator_from_round_one(self, random_trajectory):
        tr = random_trajectory
        res = interval_regret_audit(tr, np.zeros(3), 1, tr.horizon)
        assert res.holds
        assert res.lhs >= -0.5 * tr.eta * tr.horizon * 3 - AUDIT_SLACK

    def test_hundred_random_pairs_hold_and_match_bruteforce(self, random_trajectory):
        tr = random_trajectory
        pairs = sample_comparator_pairs(tr, 100, seed=777)
        for mu, t1, t2 in pairs:
            res = interval_regret_audit(tr, mu, t1, t2)
            assert res.holds, (t1, t2)
            # independent plain-python recomputation of both sides
            lhs = sum(
                float(np.dot(tr.duals[t - 1], tr.unified_values[t - 1]))
                for t in range(t1, t2 + 1)
            )
            rhs = (
                sum(
                    float(np.dot(mu, tr.unified_values[t - 1]))
                    for t in range(t1, t2 + 1)
                )
                - float(np.dot(tr.duals[t1 - 1] - mu, tr.duals[t1 - 1] - mu))
                / (2 * tr.eta)
                - 0.5 * tr.eta * tr.horizon * tr.num_constraints
            )
            assert res.lhs == pytest.approx(lhs, rel=1e-9, abs=1e-9)
            assert res.rhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_invalid_interval(self, random_trajectory):
        with pytest.raises(ValidationError):
            interval_regret_audit(random_trajectory, np.zeros(3), 10, 5)

    def test_negative_comparator_rejected(self, random_trajectory):
        with pytest.raises(ValidationError):
            interval_regret_audit(random_trajectory, [-0.1, 0.0, 0.0], 1, 5)


class TestDualDrift:
    def test_void_only_run_bounded_by_budget_decay(self):
        # void-only action set: gradients are the void column [0.., -beta..]
        r = ([0.0], np.zeros((0, 1)), [[0.0], [0.0]])
        inst = instance_of(ob.ActionSet(1, 0), ob.BudgetSpec(8, [0.25, 0.25]), (r,) * 8)
        config = OgdConfig(eta=0.5, delta=0.5)
        tr = ob.run(inst, config)
        assert np.array_equal(tr.actions, np.zeros(8, dtype=np.int64))
        drift = dual_drift(tr)
        assert drift["max_drift"] <= config.eta * 0.5 + 1e-12  # eta * sum(beta)
        assert drift["ok"] and drift["bound"] == config.eta * 2  # eta * M

    def test_exact_equality_case(self):
        # single general constraint, gradient +1 while the action stays
        # optimal; eta = 2^-3 keeps every dual step exact in binary
        r = ([0.0, 1.0], [[0.0, 1.0]], np.zeros((0, 2)))
        inst = instance_of(ob.ActionSet(2, 0), ob.BudgetSpec(6, []), (r,) * 6)
        tr = ob.run(inst, OgdConfig(eta=0.125, delta=0.5))
        assert np.array_equal(tr.actions, np.ones(6, dtype=np.int64))
        assert dual_drift(tr)["max_drift"] == 0.125

    def test_random_run_within_bound(self, random_trajectory):
        tr = random_trajectory
        assert dual_drift(tr)["max_drift"] <= tr.eta * tr.num_constraints + 1e-12


class TestUpdateExactness:
    def test_recorded_duals_reproduce_bitwise(self, random_trajectory):
        tr = random_trajectory
        for t in range(tr.horizon):
            stepped = np.maximum(0.0, tr.duals[t] + tr.eta * tr.unified_values[t])
            assert np.array_equal(stepped, tr.duals[t + 1])


class TestDualPenalty:
    def test_holds_on_random_run(self, random_trajectory):
        assert dual_penalty(random_trajectory)["ok"] is True

    def test_holds_when_gate_closes(self):
        r = ([0.0, 1.0], np.zeros((0, 2)), [[0.0, 1.0]])
        inst = instance_of(ob.ActionSet(2, 0), ob.BudgetSpec(20, [0.25]), (r,) * 20)
        tr = ob.run(inst, OgdConfig(eta=1e-3, delta=0.05))
        assert tr.stopping_time < 20  # the budget actually binds
        res = dual_penalty(tr)
        eta, T, tau = tr.eta, tr.horizon, tr.stopping_time
        # beta_min = 0.25 comes from the run's instance
        assert res["rhs"] == pytest.approx(0.5 * eta * T - (T - tau) + 4.0 + 8.0 / eta, rel=1e-12)
        assert res["ok"] is True

    def test_no_budget_case_uses_interval_bound(self):
        fx = ob.make_example1_instance(0.1, 0.2, horizon=50)
        inst = ob.sample_instance(fx.general, 50, 0)
        tr = ob.run(inst, OgdConfig(eta=0.01, delta=0.05))
        res = dual_penalty(tr)
        assert res["rhs"] == 0.5 * tr.eta * tr.horizon * tr.num_constraints
        assert res["ok"] is True


def unclipped_run(T):
    """The seed-0 run at the schedule's eta of a model with K = 2 (void,
    play), m = n = 1 and two equally likely rows whose general costs are
    positive, so the general dual never clips and sum_{t<tau} g_t =
    lambda_tau / eta in exact arithmetic.  The gate closes near 2T/3."""
    model = model_of(
        ob.ActionSet(2, 0), ob.BudgetSpec(T, [0.3]),
        [([0.0, 1.0], [[0.0, 0.3]], [[0.0, 0.5]]), ([0.0, 0.9], [[0.0, 0.7]], [[0.0, 0.4]])],
        [0.5, 0.5])
    return ob.run(ob.sample_instance(model, T, 0), OgdConfig(default_eta(T, 2, 0.05), 0.05))


def _tampered(tr, name):
    """``tr`` with one recorded fact edited so that verdict ``name`` fails."""
    duals, tau = tr.duals.copy(), tr.stopping_time
    if name == "budget_exactness":  # the gate never closes: play past the caps
        return dataclasses.replace(tr, stopping_time=tr.horizon)
    if name == "dual_drift":
        duals[5] += 10 * tr.eta * tr.num_constraints
    elif name == "dual_penalty":  # the penalty pays the run for every cost it incurs
        duals *= -1e6
    elif name == "telescoped_violation":
        duals[tau] /= 2
    elif name == "dominance":  # prices so high that void beats every played round
        duals *= 1e6
    elif name == "post_stopping_time":
        duals[-1] += 1.0
    return dataclasses.replace(tr, duals=duals)


@pytest.mark.parametrize("verdict", DETERMINISTIC_AUDITS, ids=lambda f: f.__name__)
def test_each_verdict_fails_its_tampered_run(verdict):
    tr = unclipped_run(2000)
    assert 0 < tr.stopping_time < tr.horizon  # the gate closed
    assert verdict(tr)["ok"] is True
    assert verdict(_tampered(tr, verdict.__name__))["ok"] is False


@pytest.mark.parametrize("T", [
    2000,
    8000,
    pytest.param(32_000, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 13: the dual steps' own rounding (3.29e-9 at "
                            "tau = 21,314) exceeds the fixed 1e-9 AUDIT_SLACK")),
])
def test_telescoped_violation_holds_on_an_unclipped_run(T):
    """A correct run whose general dual never clips meets its telescoped
    bound with equality, so only rounding separates the two sides."""
    assert telescoped_violation(unclipped_run(T))["ok"] is True
