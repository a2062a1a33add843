"""Instance construction: i.i.d. samplers and named generators.

Stochastic models (:class:`ora_bob.core.StochasticModel`) are finite-support
distributions over input rows; that restriction is what makes the offline
optimum and Slater oracles exact.  The generators build a model's support,
like an instance's rounds, directly as (F, G, H) row stacks; the file
format lives in :mod:`ora_bob.serialization`.
Sampling uses inverse-CDF over the counter generator in :mod:`ora_bob.rng`
(stream 0 for instance-level draws, stream t for round t), so identical seeds
reproduce identical sequences on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .core import MAX_HORIZON, ActionSet, BudgetSpec, Instance, StochasticModel, ValidationError


def sample_support_indices(model: StochasticModel, T: int, seed: int) -> np.ndarray:
    """T i.i.d. support indices by inverse-CDF over stream-0 uniforms.

    The cumulative probabilities are accumulated in support order, so the
    draw is reproducible independent of any float reassociation concerns.
    """
    u = rng.uniforms(seed, 0, np.arange(T))
    cum = np.cumsum(model.probs)
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, model.support_size - 1)


def sample_instance(model: StochasticModel, T: int, seed: int) -> Instance:
    """T i.i.d. draws of ``model``'s support rows as an instance."""
    return Instance(
        model.actions,
        BudgetSpec(T, model.budget.per_round_budget),
        model.rows,
        sample_support_indices(model, T, seed),
    )


# ---------------------------------------------------------------------------
# Named generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Example1Fixture:
    """The two-constraint illustration instance in both flavors.

    ``budget_only``: actions {void, x_A}, two budget resources with
    per-round budget rho each; x_A earns 1 and consumes [rho+eps, 0].
    ``general``: actions {void, x_safe, x_swing}, two general constraints;
    x_safe earns 1 at cost [-rho, -rho], x_swing earns 1 at cost
    [rho+eps, -1], so large duals still prefer x_swing through
    cross-constraint compensation.
    """

    budget_only: StochasticModel
    general: StochasticModel


def make_example1_instance(
    rho: float, epsilon: float, horizon: int = 1000
) -> Example1Fixture:
    if not 0.0 < rho < 1.0 / 6.0:
        raise ValidationError(f"rho must lie in (0, 1/6), got {rho!r}")
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be > 0, got {epsilon!r}")
    if 3.0 * rho + epsilon >= 1.0:
        raise ValidationError(
            f"parameter regime violation: 3*rho + epsilon = {3.0 * rho + epsilon!r} >= 1"
        )
    budget = BudgetSpec(horizon, [rho, rho])  # refuses a horizon outside [1, MAX_HORIZON]
    if horizon * rho < 1.0:
        raise ValidationError(
            f"horizon {horizon} too short for per-round budget rho={rho!r} "
            f"(needs horizon*rho >= 1)"
        )
    budget_only = StochasticModel(
        ActionSet(2, 0),
        budget,
        ([[0.0, 1.0]], np.zeros((1, 0, 2)), [[[0.0, rho + epsilon], [0.0, 0.0]]]),
        [1.0],
    )
    general = StochasticModel(
        ActionSet(3, 0),
        BudgetSpec(horizon, []),
        (
            [[0.0, 1.0, 1.0]],
            [[[0.0, -rho, rho + epsilon], [0.0, -rho, -1.0]]],
            np.zeros((1, 0, 3)),
        ),
        [1.0],
    )
    return Example1Fixture(budget_only=budget_only, general=general)


def _random_beta(seed: int, n: int, margin: float, horizon: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    lo = max(margin, 1.0 / horizon)
    hi = min(1.0, lo + 0.6)
    return lo + rng.uniforms(seed, 0, np.arange(n)) * (hi - lo)


def _random_rounds(
    seed: int, count: int, K: int, m: int, n: int, margin: float, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, G, H) stacks of uniform rows with a planted strictly-safe action
    at index 1.

    The safe action's general costs lie in [-1, -margin] and its consumptions
    in [0, beta_j - margin], so every unified entry of its column is at most
    -margin.  Row t draws from stream t+1.
    """
    entries = K * (1 + m + n) + m + n
    streams = np.arange(1, count + 1, dtype=np.uint64)[:, None]
    u = rng.uniforms(seed, streams, np.arange(entries)[None, :])

    pos = 0
    f = u[:, pos : pos + K].copy()
    pos += K
    g = (2.0 * u[:, pos : pos + m * K] - 1.0).reshape(count, m, K)
    pos += m * K
    h = u[:, pos : pos + n * K].reshape(count, n, K).copy()
    pos += n * K
    safe_g = -(margin + u[:, pos : pos + m] * (1.0 - margin))
    pos += m
    safe_h = u[:, pos : pos + n] * (beta[None, :] - margin)

    f[:, 0] = 0.0
    if m:
        g[:, :, 0] = 0.0
        g[:, :, 1] = safe_g
    if n:
        h[:, :, 0] = 0.0
        h[:, :, 1] = safe_h
    return f, g, h


def _check_random_params(K: int, m: int, n: int, margin: float, count: int, horizon: int):
    if not 1 <= horizon <= MAX_HORIZON:
        raise ValidationError(f"horizon T={horizon} outside [1, MAX_HORIZON = 2**53]")
    if K < 2:
        raise ValidationError(f"K must be >= 2 (void plus safe action), got {K}")
    if not 0.0 < margin <= 0.5:
        raise ValidationError(
            f"feasibility_margin must lie in (0, 0.5], got {margin!r}"
        )
    if count < 1 or m < 0 or n < 0:
        raise ValidationError(f"bad dimensions count={count}, m={m}, n={n}")


def random_instance(
    seed: int, T: int, K: int, m: int, n: int, feasibility_margin: float
) -> Instance:
    """A uniform random adversarial instance with a planted safe action.

    Action 0 is void; action 1 is strictly safe every round, so the
    adversarial Slater parameter is at least ``feasibility_margin`` by
    construction.  All other entries are uniform over their admissible
    ranges.  Per-round draws come from stream t, instance-level draws from
    stream 0.
    """
    _check_random_params(K, m, n, feasibility_margin, T, T)
    beta = _random_beta(seed, n, feasibility_margin, T)
    rows = _random_rounds(seed, T, K, m, n, feasibility_margin, beta)
    return Instance(ActionSet(K, 0), BudgetSpec(T, beta), rows, np.arange(T))


def random_model(
    seed: int, S: int, K: int, m: int, n: int, feasibility_margin: float,
    horizon: int = 1000,
) -> StochasticModel:
    """A finite-support model whose tuples follow the random_instance scheme.

    Every support tuple carries the planted safe action calibrated against
    the model's budget vector, so the stochastic Slater parameter is at least
    ``feasibility_margin``.  Probabilities are uniform over the support.
    """
    _check_random_params(K, m, n, feasibility_margin, S, horizon)
    beta = _random_beta(seed, n, feasibility_margin, horizon)
    rows = _random_rounds(seed, S, K, m, n, feasibility_margin, beta)
    return StochasticModel(ActionSet(K, 0), BudgetSpec(horizon, beta), rows, np.full(S, 1.0 / S))


def make_push_pull_model(
    levels: tuple[tuple[float, float], ...] = ((0.5, 0.02), (0.45, 0.022)),
    unit_cost: float = 0.5,
    horizon: int = 2000,
) -> StochasticModel:
    """One general constraint priced by two opposing actions.

    Each support tuple has a 'push' action (reward mid + gap/2, cost
    +unit_cost) and a 'pull' action (reward mid - gap/2, cost -unit_cost);
    the dual price that equalizes them is gap / (2 * unit_cost).  With small
    gaps the duals reach that price early in the horizon and the cumulative
    violation then tracks price/eta ~ sqrt(T log T), which is what the
    violation-scaling sweep measures.  The constant pull policy certifies a
    stochastic Slater parameter of ``unit_cost``.
    """
    if not 0.0 < unit_cost <= 1.0:
        raise ValidationError(f"unit_cost must lie in (0, 1], got {unit_cost!r}")
    rewards = []
    for mid, gap in levels:
        hi, lo = mid + gap / 2.0, mid - gap / 2.0
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValidationError(f"level (mid={mid}, gap={gap}) leaves [0, 1]")
        rewards.append([0.0, hi, lo])
    s = len(rewards)
    costs = np.zeros((s, 1, 3))
    costs[:, 0, 1:] = unit_cost, -unit_cost
    return StochasticModel(
        ActionSet(3, 0),
        BudgetSpec(horizon, []),
        (rewards, costs, np.zeros((s, 0, 3))),
        np.full(s, 1.0 / s),
    )


def make_pacing_model(
    beta: float = 0.25,
    reward_levels: tuple[tuple[float, float], ...] = ((0.31, 0.30), (0.315, 0.305)),
    horizon: int = 2000,
) -> StochasticModel:
    """Budget pacing with a 'burst' action and a budget-rate 'steady' action.

    The burst action consumes a full unit per round for slightly more reward
    than the steady action, which consumes exactly the per-round budget.
    The offline optimum paces (plays steady throughout); the dual price that
    makes the allocator switch off bursting is tiny, so regret per round
    shrinks visibly across desk-scale horizons.
    """
    if not 0.0 < beta < 1.0:
        raise ValidationError(f"beta must lie in (0, 1), got {beta!r}")
    s = len(reward_levels)
    rewards = np.zeros((s, 3))
    rewards[:, 1:] = reward_levels
    consumptions = np.zeros((s, 1, 3))
    consumptions[:, 0, 1:] = 1.0, beta
    return StochasticModel(
        ActionSet(3, 0),
        BudgetSpec(horizon, [beta]),
        (rewards, np.zeros((s, 0, 3)), consumptions),
        np.full(s, 1.0 / s),
    )


_EXAMPLE1_PARAMS = {"T": (int, 1000), "epsilon": (float, 0.2), "rho": (float, 0.1)}

#: Each named generator: its builder, called with keyword arguments, and the
#: parameters it accepts, each with its type and default.
GENERATORS = {
    "example1_budget": (
        lambda T, epsilon, rho: make_example1_instance(rho, epsilon, T).budget_only,
        _EXAMPLE1_PARAMS,
    ),
    "example1_general": (
        lambda T, epsilon, rho: make_example1_instance(rho, epsilon, T).general,
        _EXAMPLE1_PARAMS,
    ),
    "random": (
        lambda K, T, m, margin, n, seed: random_instance(seed, T, K, m, n, margin),
        {"K": (int, 4), "T": (int, 1000), "m": (int, 1), "margin": (float, 0.2),
         "n": (int, 1), "seed": (int, 0)},
    ),
    "random_model": (
        lambda K, S, T, m, margin, n, seed: random_model(seed, S, K, m, n, margin, T),
        {"K": (int, 4), "S": (int, 3), "T": (int, 1000), "m": (int, 1),
         "margin": (float, 0.2), "n": (int, 1), "seed": (int, 0)},
    ),
    "push_pull": (
        lambda T: make_push_pull_model(horizon=T),
        {"T": (int, 2000)},
    ),
    "pacing": (
        lambda T, beta: make_pacing_model(beta=beta, horizon=T),
        {"T": (int, 2000), "beta": (float, 0.25)},
    ),
}


def build_generator(name: str, params: dict):
    """Instantiate a named generator from CLI-style string parameters;
    ValidationError on an unknown name or parameter, or a value that does
    not parse as its parameter's type."""
    if name not in GENERATORS:
        raise ValidationError(f"unknown generator {name!r}; available: {sorted(GENERATORS)}")
    build, accepted = GENERATORS[name]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValidationError(
            f"unknown parameter(s) {unknown} for generator {name!r}; "
            f"accepted: {list(accepted)}"
        )
    values = {}
    for key, (cast, default) in accepted.items():
        try:
            values[key] = cast(params[key]) if key in params else default
        except ValueError:
            raise ValidationError(
                f"generator {name!r} parameter {key!r}: {params[key]!r} is not "
                f"of type {cast.__name__}"
            ) from None
    return build(**values)
