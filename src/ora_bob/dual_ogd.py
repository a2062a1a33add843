"""Projected online gradient descent for the dual multipliers: the dual
penalty of the Lagrangian, the learning-rate schedule, and the trajectory
audits that check its weak-adaptivity guarantees.

The dual update lambda_{t+1} = max(0, lambda_t + eta * g~_t(x_t)),
componentwise, is taken inline by the allocator's round loop; this module
holds its schedule and :func:`penalties`, the penalty term that the loop's
argmax and the dominance audit both subtract.  Each deterministic audit is
one function of a :class:`~ora_bob.core.Trajectory`, named after its
audit-JSON key and returning that key's entry (``ok`` null where it does
not apply): ``budget_exactness``, ``dominance`` and ``post_stopping_time``
are exact; ``dual_drift`` allows ``DRIFT_SLACK``; ``dual_penalty`` and
``telescoped_violation`` allow ``AUDIT_SLACK``, as does the sampled
``interval_regret_audit``.  The run summary's ``budget_feasible``,
``max_drift`` and ``bounds.drift`` are read from the first two verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EXACT_BITS, MAX_HORIZON, ROUND_BLOCK, Trajectory, ValidationError, exact_sum, exact_value,
)

#: Absolute slack for audit inequalities, sized against double-precision
#: accumulation over T <= 1e5 terms of magnitude <= 1.
AUDIT_SLACK = 1e-9

#: Slack for the per-step dual drift bound, which involves no long sums.
DRIFT_SLACK = 1e-12

#: Largest learning rate: duals stay below eta * MAX_HORIZON * |u| <= 2**117 |u|,
#: and the allocator's margins stay finite (an eta near 1e308 overflows them).
MAX_ETA = 2.0**64


@dataclass(frozen=True)
class OgdConfig:
    """Learning rate eta and the confidence parameter delta used to derive it.

    delta is experiment configuration: the schedule depends on it, the
    algorithm never observes it otherwise.  It is recorded in trace headers.
    """

    eta: float
    delta: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.eta <= MAX_ETA:
            raise ValidationError(f"eta must be in (0, 2**64], got {self.eta!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must be in (0, 1), got {self.delta!r}")


def learning_rate(T: int, M: int, delta: float) -> float:
    """The schedule eta = 1 / (60 * M * sqrt(2 T ln(T^2 / delta)))."""
    if T < 2:
        raise ValidationError(f"T must be >= 2, got {T}")
    if T > MAX_HORIZON:
        raise ValidationError(f"T={T} is above MAX_HORIZON = 2**53")
    if M < 1:
        raise ValidationError(f"M must be >= 1, got {M}")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta!r}")
    return 1.0 / (60.0 * M * math.sqrt(2.0 * T * math.log(T * T / delta)))


def penalties(unified: np.ndarray, dual_values: np.ndarray) -> np.ndarray:
    """<lambda, g~(x)> for every action x, accumulated in index order.

    A round's Lagrangian values f_t(x) - <lambda_t, g~_t(x)> over all
    actions are ``rewards - penalties(unified, duals)``.  ``unified`` is the
    (M, K) unified constraint matrix, or any (M, ...) stack of them, and
    ``dual_values`` (M, ...) matches its leading axes (``dual_values[i]``
    broadcasts against ``unified[i]``); returns ``unified.shape[1:]``, all
    zeros when M = 0.

    The M products lambda_i * g~_i(x) are formed in one multiply and summed
    with one ``np.add.accumulate`` over the constraint axis, which adds
    strictly in constraint-index order with no reassociation: each output is
    (...(lambda_1*g~_1 + lambda_2*g~_2) + ...) + lambda_M*g~_M.  So
    evaluating the same (input, dual) pair twice, one round or a whole stack
    of lanes at a time, is bit-identical on a platform; :func:`dominance`
    relies on that exact equality.  The sum starts from the first product
    rather than from 0.0, so where every product is zero and the first is
    -0.0 the result is -0.0; that compares equal to 0.0, so no argmax or
    value comparison can tell the two apart.  The allocator's argmax over
    these values breaks ties toward the lowest action index, which keeps
    traces reproducible.
    """
    if not len(unified):
        return np.zeros(unified.shape[1:])
    dual_values = np.asarray(dual_values)
    extra = (1,) * (unified.ndim - dual_values.ndim)
    products = dual_values.reshape(dual_values.shape + extra) * unified
    return np.add.accumulate(products, axis=0)[-1]


def interval_regret_audit(
    trajectory: Trajectory,
    comparator,
    t1: int,
    t2: int,
) -> dict:
    """Check the interval guarantee of OGD against a fixed comparator.

    For mu >= 0 and 1 <= t1 <= t2 <= T the recorded run must satisfy

        sum_{t=t1..t2} <lambda_t, g~_t>
            >= sum_{t=t1..t2} <mu, g~_t> - ||lambda_{t1} - mu||_2^2 / (2 eta)
               - (eta / 2) * T * M

    within ``AUDIT_SLACK``.  Both sides are recomputed from the recorded
    gradients and duals.  Returns the audit JSON's pair record,
    ``{"t1", "t2", "mu", "lhs", "rhs", "holds"}`` in that key order.
    """
    T = trajectory.horizon
    if not (1 <= t1 <= t2 <= T):
        raise ValidationError(f"invalid interval [{t1}, {t2}] for T={T}")
    mu = np.asarray(comparator, dtype=np.float64).reshape(-1)
    M = trajectory.num_constraints
    if mu.shape[0] != M:
        raise ValidationError(f"comparator has {mu.shape[0]} components, M={M}")
    if np.any(mu < 0.0):
        raise ValidationError("comparator must be componentwise >= 0")
    eta = trajectory.eta

    grads = trajectory.unified_values[t1 - 1 : t2]
    lams = trajectory.duals[t1 - 1 : t2]
    lhs = float(np.einsum("tm,tm->", lams, grads))
    diff = trajectory.duals[t1 - 1] - mu
    # fsum, not @: a BLAS dot sums in its CPU kernel's order, and rhs is stored
    rhs = (math.fsum((mu * grads.sum(axis=0)).tolist())
           - math.fsum((diff * diff).tolist()) / (2.0 * eta) - 0.5 * eta * T * M)
    return {"t1": t1, "t2": t2, "mu": mu.tolist(), "lhs": lhs, "rhs": rhs,
            "holds": lhs >= rhs - AUDIT_SLACK}


def budget_exactness(trajectory: Trajectory) -> dict:
    """Each resource's exact played total is at most its exact cap beta_j * T
    (either float can round across the cap), both counted as integers in
    units of 2**-EXACT_BITS; ``final`` and ``limits`` are those two rounded
    once, by integer true division, which is correctly rounded."""
    instance, T = trajectory.instance, trajectory.horizon
    beta = instance.budget.per_round_budget
    if not beta.size:
        return {"ok": None, "status": "not_applicable"}
    h = instance.rows[2]
    totals = [exact_sum(h[instance.index, j, trajectory.actions]) for j in range(beta.size)]
    caps = [exact_value(b) * T for b in beta]
    unit = 1 << EXACT_BITS
    return {"ok": all(total <= cap for total, cap in zip(totals, caps)),
            "final": [total / unit for total in totals], "limits": [cap / unit for cap in caps]}


def dual_drift(trajectory: Trajectory) -> dict:
    """``max_drift``, the largest per-step change of ||lambda_t||_1 along
    the run, is at most eta * M; the bound is deterministic, not
    probabilistic."""
    drift = float(np.max(np.abs(np.diff(trajectory.dual_l1))))
    bound = trajectory.eta * trajectory.num_constraints
    return {"ok": bool(drift <= bound + DRIFT_SLACK), "max_drift": drift, "bound": bound}


def dual_penalty(trajectory: Trajectory) -> dict:
    """Check the stopping-time bound on the cumulative dual penalty.

    On every run the recorded quantities must satisfy

        -sum_{t<=tau} <lambda_t, g~_t(x_t)>
            <= -(T - tau) + 1/beta_min + 1/(2 eta beta_min^2) + (eta/2) T M

    within ``AUDIT_SLACK``, beta_min the instance's smallest per-round
    budget.  With no budget resources tau = T and the budget terms drop,
    leaving the zero-comparator interval bound (eta/2) T M.  The inequality
    is deterministic: when the gate closes, the exhausted resource's
    cumulative consumption is the certificate.
    """
    tau = trajectory.stopping_time
    eta = trajectory.eta
    T, M = trajectory.horizon, trajectory.num_constraints
    lhs = -float(np.einsum("tm,tm->", trajectory.duals[:tau], trajectory.unified_values[:tau]))
    rhs = 0.5 * eta * T * M
    beta = trajectory.instance.budget.per_round_budget
    if beta.size:
        beta_min = float(beta.min())
        rhs += -(T - tau) + 1.0 / beta_min + 1.0 / (2.0 * eta * beta_min * beta_min)
    return {"ok": lhs <= rhs + AUDIT_SLACK, "lhs": lhs, "rhs": rhs}


def telescoped_violation(trajectory: Trajectory) -> dict:
    """Each general constraint's cumulative cost up to tau is at most
    lambda_tau / eta: the dual update telescopes, and clipping only adds."""
    m, tau = trajectory.num_general, trajectory.stopping_time
    if not m:
        return {"ok": None, "status": "not_applicable"}
    sums = trajectory.cumulative_general[tau - 1] if tau else np.zeros(m)
    caps = trajectory.duals[tau, :m] / trajectory.eta
    return {"ok": bool(np.all(sums <= caps + AUDIT_SLACK)), "cumulative": sums.tolist(),
            "caps": caps.tolist()}


def dominance(trajectory: Trajectory) -> dict:
    """Whether every gate-open round's candidate maximizes its Lagrangian
    values at the round's duals, by the allocator's own
    :func:`penalties`, so a replay compares bit for bit.
    The rounds are checked one block of ROUND_BLOCK at a time, each block's
    rows gathered through the instance's row index; ``failing_rounds`` are
    the first ten failing rounds, 1-based."""
    instance = trajectory.instance
    F, U = instance.rows[0], instance.unified_rows
    duals = trajectory.duals[:-1]
    failing: list[int] = []
    for lo in range(0, trajectory.horizon, ROUND_BLOCK):
        rounds = slice(lo, lo + ROUND_BLOCK)
        rows = instance.index[rounds]
        values = F[rows] - penalties(U[rows].transpose(1, 0, 2), duals[rounds].T[:, :, None])
        chosen = values[np.arange(len(rows)), trajectory.candidates[rounds]]
        bad = np.flatnonzero(trajectory.gate_open[rounds] & (chosen < values.max(axis=1)))
        failing += (bad[:10] + lo + 1).tolist()
    return {"ok": not failing, "failing_rounds": failing[:10]}


def post_stopping_time(trajectory: Trajectory) -> dict:
    """After tau the run plays only the void action and no dual rises."""
    tau = trajectory.stopping_time
    void = trajectory.instance.actions.void_index
    post_void = bool(np.all(trajectory.actions[tau:] == void))
    post_mono = bool(np.all(trajectory.duals[tau + 1 :] <= trajectory.duals[tau:-1]))
    return {"ok": post_void and post_mono, "void_only": post_void,
            "duals_nonincreasing": post_mono}


#: The deterministic audits in the audit JSON's key order.
DETERMINISTIC_AUDITS = (budget_exactness, dual_drift, dual_penalty, telescoped_violation,
                        dominance, post_stopping_time)


_PAIR_STREAM_T = 0xA0D17
_PAIR_STREAM_MU = 0xA0D18


def sample_comparator_pairs(
    trajectory: Trajectory, count: int, seed: int
) -> list[tuple[np.ndarray, int, int]]:
    """Deterministic (mu, [t1, t2]) pairs for interval-regret audits.

    Intervals are uniform over 1 <= t1 <= t2 <= T; comparators are uniform
    over [0, hi]^M with hi twice the largest recorded multiplier (at least 1),
    which brackets the comparators the proofs actually use.
    """
    from . import rng

    T = trajectory.horizon
    M = trajectory.num_constraints
    u = rng.uniforms(seed, _PAIR_STREAM_T, np.arange(2 * count)).reshape(count, 2)
    t1 = np.minimum((u[:, 0] * T).astype(np.int64) + 1, T)
    span = (u[:, 1] * (T - t1 + 1)).astype(np.int64)
    t2 = np.minimum(t1 + span, T)
    hi = max(1.0, 2.0 * float(trajectory.duals.max(initial=0.0)))
    mus = rng.uniforms(seed, _PAIR_STREAM_MU, np.arange(count * M)).reshape(count, M) * hi
    return [(mus[i], int(t1[i]), int(t2[i])) for i in range(count)]
