"""Performance functionals over trajectories and closed-form bound checks.

The bound checks are audits, not algorithm inputs: the allocator never sees
the Slater parameter, so every bound here is evaluated with oracle-computed
rho and clearly separated from the run configuration.
"""

from __future__ import annotations

import math

from .core import Trajectory, ValidationError
from .dual_ogd import AUDIT_SLACK, budget_exactness, dual_drift
from .oracles import alpha


def total_reward(trajectory: Trajectory) -> float:
    """Rew(T), the trace's final cum_reward cell."""
    return float(trajectory.cumulative_reward[-1])


def violation(trajectory: Trajectory) -> float:
    """V_T: max over general constraints of the cumulative cost, signed, the
    trace's final max_general_violation_cum cell.

    With no general constraints returns 0.0; the run summary flags that case
    as not applicable.
    """
    if trajectory.num_general == 0:
        return 0.0
    return float(trajectory.cumulative_general[-1].max())


def regret(opt_stoc_value: float, trajectory: Trajectory) -> float:
    """Oracle baseline minus realized reward for one run; average over
    replications to estimate the expectation.  Signed: estimator noise can
    make it negative."""
    return float(opt_stoc_value - total_reward(trajectory))


def alpha_regret(alpha: float, opt_adv_value: float, trajectory: Trajectory) -> float:
    """alpha * OPT_adv - Rew(T)."""
    if not 0.0 <= alpha < 1.0:
        raise ValidationError(f"alpha must lie in [0, 1), got {alpha!r}")
    return float(alpha * opt_adv_value - total_reward(trajectory))


def theorem_bounds(
    T: int, M: int, rho: float, delta: float, beta_min: float | None = None
) -> dict[str, float]:
    """The closed-form guarantees at the stated parameters.

    dual_norm: 14 M / rho
    violation: 840 M^2 / rho * sqrt(2 T ln(T^2/delta))
    regret:    1/beta_min + 60 M sqrt(2 T ln(T^2/delta)) / (2 beta_min^2)
               + sqrt(T) / (120 sqrt(2 ln(T^2/delta)))
    (the regret and alpha-regret guarantees share one right-hand side; the
    'regret' entry is omitted when beta_min is None, i.e. no budgets).
    """
    if rho <= 0.0:
        raise ValidationError(f"rho must be > 0, got {rho!r}")
    if T < 2:
        raise ValidationError(f"T must be >= 2, got {T}")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta!r}")
    log_term = math.log(T * T / delta)
    root = math.sqrt(2.0 * T * log_term)
    bounds = {
        "dual_norm": 14.0 * M / rho,
        "violation": 840.0 * M * M / rho * root,
    }
    if beta_min is not None:
        if beta_min <= 0.0:
            raise ValidationError(f"beta_min must be > 0, got {beta_min!r}")
        bounds["regret"] = (
            1.0 / beta_min
            + 60.0 * M * root / (2.0 * beta_min * beta_min)
            + math.sqrt(T) / (120.0 * math.sqrt(2.0 * log_term))
        )
    return bounds


def max_dual_l1(trajectory: Trajectory) -> float:
    """max over t in [T] of ||lambda_t||_1 (the quantity the dual-norm bound
    speaks about; lambda_{T+1} is excluded), the trace's largest lambda_l1
    cell."""
    return float(trajectory.dual_l1[:-1].max())


def _check(value: float, satisfied: bool | None) -> dict:
    return {"value": value, "satisfied": satisfied}


def run_summary(
    trajectory: Trajectory,
    rho: float | None = None,
    benchmark: float | None = None,
) -> dict:
    """The per-run report, as a cell's summary JSON stores it.

    ``violation`` is V_T signed and ``violation_clamped`` its positive
    part; ``bounds`` maps each checked guarantee to its closed-form
    ``value`` and whether the run ``satisfied`` it (null where it does not
    apply).  Given the Slater parameter ``rho`` > 0 it includes the bound
    checks; given the offline ``benchmark`` value it includes the regret
    against it, and with both the alpha(rho)-regret.  ``budget_feasible``,
    ``max_drift`` and ``bounds.drift`` are the audit's
    :func:`~ora_bob.dual_ogd.budget_exactness` and
    :func:`~ora_bob.dual_ogd.dual_drift` verdicts."""
    v = violation(trajectory)
    has_rho = rho is not None and rho > 0.0
    summary_regret = regret(benchmark, trajectory) if benchmark is not None else None
    summary_alpha_regret = (alpha_regret(alpha(rho), benchmark, trajectory)
                            if benchmark is not None and has_rho else None)
    dual_l1 = max_dual_l1(trajectory)
    drift = dual_drift(trajectory)
    M, eta = trajectory.num_constraints, trajectory.eta
    checks = {"drift": _check(drift["bound"], drift["ok"])}
    if has_rho:
        beta = trajectory.instance.budget.per_round_budget
        beta_min = float(beta.min()) if beta.size else None
        bounds = theorem_bounds(trajectory.horizon, M, rho, trajectory.delta, beta_min)
        checks["dual_norm"] = _check(bounds["dual_norm"], bool(dual_l1 <= bounds["dual_norm"]))
        checks["violation"] = _check(
            bounds["violation"],
            bool(v <= bounds["violation"] + AUDIT_SLACK) if trajectory.num_general else None)
        if "regret" in bounds:
            checks["regret"] = _check(
                bounds["regret"],
                bool(summary_regret <= bounds["regret"]) if summary_regret is not None else None)
        # The analysis assumes eta <= 1/(rho M); the allocator cannot enforce
        # it (rho is unknown to it), so report whether the run satisfied it.
        checks["eta_rho_compatible"] = _check(1.0 / (rho * M) if M else math.inf,
                                              bool(eta <= 1.0 / (rho * M)) if M else None)
    return {
        "total_reward": total_reward(trajectory),
        "violation": v,
        "violation_clamped": max(v, 0.0),
        "violation_applicable": trajectory.num_general > 0,
        "tau": trajectory.stopping_time,
        "max_dual_l1": dual_l1,
        "max_drift": drift["max_drift"],
        "budget_feasible": budget_exactness(trajectory)["ok"],
        "regret": summary_regret,
        "alpha_regret": summary_alpha_regret,
        "bounds": checks,
    }
