import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

import ora_bob as ob
from ora_bob.core import ActionSet, BudgetSpec, ValidationError
from ora_bob.dual_ogd import OgdConfig
from ora_bob.metrics import (
    alpha_regret,
    max_dual_l1,
    regret,
    run_summary,
    theorem_bounds,
    violation,
)
from rowstacks import instance_of, trace_columns


def violating_instance(T=12, per_round=0.1):
    r = ([0.0, 1.0], [[0.0, per_round]], np.zeros((0, 2)))
    return instance_of(ActionSet(2, 0), BudgetSpec(T, []), (r,) * T)


def test_violation_all_void_is_zero():
    r = ([0.0], [[0.0]], np.zeros((0, 1)))
    inst = instance_of(ActionSet(1, 0), BudgetSpec(5, []), (r,) * 5)
    tr = ob.run(inst, OgdConfig(0.01, 0.05))
    assert violation(tr) == 0.0


def test_violation_accumulates_then_stops():
    # +0.1 cost per round with eta=10: lambda hits the 1/0.1 switching price
    # after round 10, play goes void (lowest-index tie break), V_T = 1.0
    inst = violating_instance(T=12)
    tr = ob.run(inst, OgdConfig(eta=10.0, delta=0.5))
    assert np.array_equal(tr.actions, [1] * 10 + [0] * 2)
    assert violation(tr) == pytest.approx(1.0, abs=1e-12)


def test_violation_matches_telescoping_input():
    inst = ob.random_instance(31, T=150, K=4, m=2, n=1, feasibility_margin=0.2)
    tr = ob.run(inst, ob.default_config(inst))
    v = violation(tr)
    recomputed = max(
        float(tr.unified_values[:, i].sum()) for i in range(tr.num_general)
    )
    assert v == pytest.approx(recomputed, abs=1e-12)
    # and v is exactly the quantity the telescoping audit caps
    tau = tr.stopping_time
    caps = tr.duals[tau, : tr.num_general] / tr.eta
    assert v <= caps.max() + 1e-9


def test_regret_signs():
    inst = violating_instance(T=5)
    tr = ob.run(inst, OgdConfig(eta=1e-4, delta=0.5))
    total = float(tr.rewards.sum())
    assert regret(total, tr) == 0.0
    assert regret(total - 1.0, tr) == -1.0  # negative regret is reported as-is


def test_alpha_regret_boundary():
    inst = violating_instance(T=5)
    tr = ob.run(inst, OgdConfig(eta=1e-4, delta=0.5))
    total = float(tr.rewards.sum())
    assert alpha_regret(0.0, 100.0, tr) == -total
    a = 0.25
    assert alpha_regret(a, total / a, tr) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValidationError):
        alpha_regret(1.0, 10.0, tr)


def test_example1_budget_run_within_regret_bound():
    # full pipeline on the worked example's budget variant at T=100:
    # alpha * OPT_adv - Rew must sit under the closed-form guarantee
    rho = 0.1
    fx = ob.make_example1_instance(rho, 0.2, horizon=100)
    inst = ob.sample_instance(fx.budget_only, 100, 0)
    tr = ob.run(inst, ob.default_config(inst, delta=0.05))
    rho_adv = ob.slater_adv(inst)
    assert rho_adv == pytest.approx(rho, abs=1e-15)
    opt_adv = ob.opt_lp_relax(inst).opt_value
    a = ob.alpha(rho_adv)
    a_reg = alpha_regret(a, opt_adv, tr)
    bound = theorem_bounds(100, 2, rho_adv, 0.05, beta_min=rho)["regret"]
    assert a_reg <= bound


def test_replication_average_reduces_spread():
    # the harness estimates expected regret by averaging per-seed runs
    model = ob.make_pacing_model()
    per_seed = []
    for s in range(30):
        inst = ob.sample_instance(model, 200, s)
        tr = ob.run(inst, ob.default_config(inst, delta=0.05))
        per_seed.append(regret(ob.opt_lp_relax(inst).opt_value, tr))
    spread = float(np.std(per_seed, ddof=1))
    stderr = spread / np.sqrt(len(per_seed))
    assert stderr < spread
    assert np.isfinite(np.mean(per_seed))


class TestTheoremBounds:
    def test_dual_bound_value(self):
        b = theorem_bounds(T=100, M=3, rho=0.2, delta=0.05)
        assert b["dual_norm"] == pytest.approx(210.0, abs=1e-9)

    def test_violation_bound_scaling(self):
        # at 4T the bound is exactly 2x the T bound up to the log factor;
        # verified by direct evaluation of the closed form
        T, M, rho, delta = 500, 2, 0.3, 0.05
        b1 = theorem_bounds(T, M, rho, delta)["violation"]
        b4 = theorem_bounds(4 * T, M, rho, delta)["violation"]
        expected = (
            2.0
            * b1
            * math.sqrt(math.log((4 * T) ** 2 / delta) / math.log(T * T / delta))
        )
        assert b4 == pytest.approx(expected, rel=1e-12)

    def test_regret_bound_against_decimal_oracle(self):
        getcontext().prec = 50
        T, M, bmin = 10_000, 3, Decimal("0.5")
        delta = Decimal("0.05")
        root = (Decimal(2) * Decimal(T) * (Decimal(T * T) / delta).ln()).sqrt()
        ln_only = (Decimal(2) * (Decimal(T * T) / delta).ln()).sqrt()
        expected = (
            Decimal(1) / bmin
            + Decimal(60 * M) * root / (2 * bmin * bmin)
            + Decimal(T).sqrt() / (Decimal(120) * ln_only)
        )
        frozen = 235610.57909123914
        assert float(expected) == pytest.approx(frozen, rel=1e-12)
        got = theorem_bounds(T, M, 0.2, 0.05, beta_min=0.5)["regret"]
        assert got == pytest.approx(frozen, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            theorem_bounds(100, 2, 0.0, 0.05)
        with pytest.raises(ValidationError):
            theorem_bounds(100, 2, 0.2, 0.05, beta_min=0.0)

    def test_regret_omitted_without_budgets(self):
        assert "regret" not in theorem_bounds(100, 2, 0.2, 0.05)


class TestRunSummary:
    def test_total_reward_matches_trace_cumulative(self):
        inst = ob.random_instance(12, T=80, K=3, m=1, n=1, feasibility_margin=0.2)
        tr = ob.run(inst, ob.default_config(inst))
        s = run_summary(tr)
        cols = trace_columns(tr)
        assert s["total_reward"] == cols["cum_reward"][-1]

    def test_violation_capped_by_stopping_time(self):
        for seed in range(5):
            inst = ob.random_instance(
                seed, T=100, K=4, m=2, n=1, feasibility_margin=0.2
            )
            tr = ob.run(inst, ob.default_config(inst))
            rho = ob.slater_adv(inst)
            s = run_summary(tr, rho=rho)
            assert s["violation"] <= min(
                s["bounds"]["violation"]["value"], float(tr.stopping_time)
            )

    def test_dual_norm_check_present(self):
        inst = ob.random_instance(2, T=60, K=3, m=1, n=1, feasibility_margin=0.2)
        tr = ob.run(inst, ob.default_config(inst))
        s = run_summary(tr, rho=ob.slater_adv(inst))
        assert s["bounds"]["dual_norm"]["satisfied"]
        assert s["max_dual_l1"] == max_dual_l1(tr)

    def test_signed_and_clamped_violation(self):
        r = ([0.0, 1.0], [[0.0, -0.5]], np.zeros((0, 2)))
        inst = instance_of(ActionSet(2, 0), BudgetSpec(6, []), (r,) * 6)
        tr = ob.run(inst, OgdConfig(0.01, 0.05))
        s = run_summary(tr)
        assert s["violation"] < 0.0
        assert s["violation_clamped"] == 0.0

    def test_not_applicable_flag(self):
        r = ([0.0, 1.0], np.zeros((0, 2)), [[0.0, 0.5]])
        inst = instance_of(ActionSet(2, 0), BudgetSpec(4, [0.5]), (r,) * 4)
        tr = ob.run(inst, OgdConfig(0.01, 0.05))
        s = run_summary(tr)
        assert not s["violation_applicable"]
        assert s["budget_feasible"] is True
