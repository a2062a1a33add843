"""Projected online gradient descent for the dual multipliers, plus the
trajectory audits that check its weak-adaptivity guarantees.

The dual update lambda_{t+1} = max(0, lambda_t + eta * g~_t(x_t)),
componentwise, is taken inline by the allocator's round loop; this module
holds its learning-rate schedule.  The interval-regret and penalty audits
re-derive both sides of their inequalities from the recorded duals and
gradients; the drift audit reads the run's dual norms from
:attr:`~ora_bob.core.Trajectory.dual_l1`, the values the trace's lambda_l1
column holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MAX_HORIZON, Trajectory, ValidationError

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


class IntervalRegretResult(NamedTuple):
    t1: int
    t2: int
    lhs: float
    rhs: float
    holds: bool


def interval_regret_audit(
    trajectory: Trajectory,
    comparator,
    t1: int,
    t2: int,
) -> IntervalRegretResult:
    """Check the interval guarantee of OGD against a fixed comparator.

    For mu >= 0 and 1 <= t1 <= t2 <= T the recorded run must satisfy

        sum_{t=t1..t2} <lambda_t, g~_t>
            >= sum_{t=t1..t2} <mu, g~_t> - ||lambda_{t1} - mu||_2^2 / (2 eta)
               - (eta / 2) * T * M

    within ``AUDIT_SLACK``.  Both sides are recomputed from the recorded
    gradients and duals.
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
    rhs = float(mu @ grads.sum(axis=0)) - float(diff @ diff) / (2.0 * eta) - 0.5 * eta * T * M
    return IntervalRegretResult(t1, t2, lhs, rhs, lhs >= rhs - AUDIT_SLACK)


def dual_drift_audit(trajectory: Trajectory) -> float:
    """Largest per-step change of ||lambda_t||_1 along the run.

    Callers assert the result against eta * M (+ DRIFT_SLACK); the bound is
    deterministic, not probabilistic.
    """
    return float(np.max(np.abs(np.diff(trajectory.dual_l1))))


class DualPenaltyResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def dual_penalty_audit(
    trajectory: Trajectory, beta_min: float | None = None
) -> DualPenaltyResult:
    """Check the stopping-time bound on the cumulative dual penalty.

    On every run the recorded quantities must satisfy

        -sum_{t<=tau} <lambda_t, g~_t(x_t)>
            <= -(T - tau) + 1/beta_min + 1/(2 eta beta_min^2) + (eta/2) T M

    within ``AUDIT_SLACK``.  With no budget resources tau = T and the budget
    terms drop, leaving the zero-comparator interval bound (eta/2) T M.
    The inequality is deterministic: when the gate closes, the exhausted
    resource's cumulative consumption is the certificate.
    """
    tau = trajectory.stopping_time
    eta = trajectory.eta
    T, M = trajectory.horizon, trajectory.num_constraints
    lhs = -float(np.einsum("tm,tm->", trajectory.duals[:tau], trajectory.unified_values[:tau]))
    rhs = 0.5 * eta * T * M
    if beta_min is not None:
        if beta_min <= 0.0:
            raise ValidationError(f"beta_min must be > 0, got {beta_min!r}")
        rhs += -(T - tau) + 1.0 / beta_min + 1.0 / (2.0 * eta * beta_min * beta_min)
    return DualPenaltyResult(lhs, rhs, lhs <= rhs + AUDIT_SLACK)


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
