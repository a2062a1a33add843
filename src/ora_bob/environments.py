"""Instance construction: i.i.d. samplers, adversarial loaders, and named
generators.

Stochastic models are finite-support distributions over input rows; that
restriction is what makes the offline optimum and Slater oracles exact.  A
model keeps its support, like an instance its rounds, as (F, G, H) row
stacks, and the generators and the file loader build those stacks
directly.
Sampling uses inverse-CDF over the counter generator in :mod:`ora_bob.rng`
(stream 0 for instance-level draws, stream t for round t), so identical seeds
reproduce identical sequences on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, serialization, traceio
from .core import (
    ActionSet,
    BudgetSpec,
    Instance,
    RowStore,
    ValidationError,
    ValidationReport,
    pool_issues,
)
from .serialization import SchemaError

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StochasticModel(RowStore):
    """Finite-support i.i.d. input distribution with a default budget.

    ``budget.horizon`` is the default sampling horizon; sampling at another T
    keeps the per-round budget vector and rescales the caps B_j = beta_j * T.
    Support row s of the (F, G, H) stacks ``rows`` is drawn with probability
    ``probs[s]``.
    """

    probs: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        p = np.array(self.probs, dtype=np.float64).reshape(-1)
        if p.shape[0] != self.support_size:
            raise ValidationError(
                f"{p.shape[0]} probabilities for {self.support_size} support tuples"
            )
        if not np.all(np.isfinite(p)):
            raise ValidationError("probabilities must be finite")
        if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"probabilities must be >= 0 and sum to 1 +/- {PROB_SUM_TOL}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def support_size(self) -> int:
        return self.rows[0].shape[0]

    def validate(self) -> ValidationReport:
        """Range/void checks on the support plus the budget-gate check at the
        stored sampling horizon."""
        return pool_issues(
            ValidationReport(), self.budget, self.rows, np.arange(self.support_size),
            self.actions,
        )


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
    """T i.i.d. draws as an instance: the support rows drawn plus the
    draws."""
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
    if horizon * rho < 1.0:
        raise ValidationError(
            f"horizon {horizon} too short for per-round budget rho={rho!r} "
            f"(needs horizon*rho >= 1)"
        )
    budget_only = StochasticModel(
        ActionSet(2, 0),
        BudgetSpec(horizon, [rho, rho]),
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


def _check_random_params(K: int, m: int, n: int, margin: float, count: int):
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
    _check_random_params(K, m, n, feasibility_margin, T)
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
    _check_random_params(K, m, n, feasibility_margin, S)
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


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def model_to_dict(model: StochasticModel) -> dict:
    d = serialization._header_to_dict(model)
    d["support"] = serialization.rows_to_dicts(model.rows)
    d["probs"] = model.probs.tolist()
    return d


def dict_to_model(d: dict) -> StochasticModel:
    serialization._check_keys(d, serialization.HEADER_KEYS + ("support", "probs"), "")
    actions, budget, k, m, n = serialization._header_from_dict(d)
    support_raw = d["support"]
    if not isinstance(support_raw, list) or not support_raw:
        raise SchemaError("expected nonempty list of support tuples", "/support")
    rows = serialization.rows_from_dicts(support_raw, k, m, n, "/support")
    probs = serialization._as_real_list(d["probs"], len(support_raw), "/probs")
    try:
        return StochasticModel(actions, budget, rows, probs)
    except ValidationError as exc:
        raise SchemaError(str(exc), "/probs") from exc


def load_instance(path) -> Instance | StochasticModel:
    """Load an adversarial instance or a stochastic model from a JSON file.

    The two are distinguished by the presence of "rounds" vs "support";
    schema violations are reported with JSON pointer paths and parse errors
    with the byte offset.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = serialization.parse_json(fh.read())
    if not isinstance(data, dict):
        raise SchemaError(f"expected object, got {type(data).__name__}", "")
    has_rounds, has_support = "rounds" in data, "support" in data
    if has_rounds and has_support:
        raise SchemaError("file has both 'rounds' and 'support'", "")
    if has_rounds:
        return serialization.dict_to_instance(data)
    if has_support:
        return dict_to_model(data)
    raise SchemaError("file has neither 'rounds' nor 'support'", "")


def save_instance(obj: Instance | StochasticModel, path) -> None:
    """Write an instance or model; save -> load round-trips bit-exactly."""
    if isinstance(obj, Instance):
        payload = serialization.instance_to_dict(obj)
    elif isinstance(obj, StochasticModel):
        payload = model_to_dict(obj)
    else:
        raise TypeError(f"cannot save object of type {type(obj).__name__}")
    traceio.write_text_atomic(path, serialization.dumps(payload))


def _param(params: dict, key: str, cast, default=None):
    if key in params:
        return cast(params[key])
    if default is None:
        raise ValidationError(f"generator parameter {key!r} is required")
    return default


#: Each named generator and the parameters it accepts.
GENERATORS = {
    "example1_budget": ("T", "epsilon", "rho"),
    "example1_general": ("T", "epsilon", "rho"),
    "random": ("K", "T", "m", "margin", "n", "seed"),
    "random_model": ("K", "S", "T", "m", "margin", "n", "seed"),
    "push_pull": ("T",),
    "pacing": ("T", "beta"),
}


def build_generator(name: str, params: dict):
    """Instantiate a named generator from CLI-style string parameters;
    ValidationError on an unknown name or parameter."""
    if name not in GENERATORS:
        raise ValidationError(f"unknown generator {name!r}; available: {sorted(GENERATORS)}")
    unknown = sorted(set(params) - set(GENERATORS[name]))
    if unknown:
        raise ValidationError(
            f"unknown parameter(s) {unknown} for generator {name!r}; "
            f"accepted: {list(GENERATORS[name])}"
        )
    if name in ("example1_budget", "example1_general"):
        fx = make_example1_instance(
            _param(params, "rho", float, 0.1),
            _param(params, "epsilon", float, 0.2),
            _param(params, "T", int, 1000),
        )
        return fx.budget_only if name == "example1_budget" else fx.general
    if name == "random":
        return random_instance(
            _param(params, "seed", int, 0),
            _param(params, "T", int, 1000),
            _param(params, "K", int, 4),
            _param(params, "m", int, 1),
            _param(params, "n", int, 1),
            _param(params, "margin", float, 0.2),
        )
    if name == "random_model":
        return random_model(
            _param(params, "seed", int, 0),
            _param(params, "S", int, 3),
            _param(params, "K", int, 4),
            _param(params, "m", int, 1),
            _param(params, "n", int, 1),
            _param(params, "margin", float, 0.2),
            _param(params, "T", int, 1000),
        )
    if name == "push_pull":
        return make_push_pull_model(horizon=_param(params, "T", int, 2000))
    return make_pacing_model(
        beta=_param(params, "beta", float, 0.25),
        horizon=_param(params, "T", int, 2000),
    )
