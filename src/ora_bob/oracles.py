"""Offline ground truth: exact optima, LP upper bounds, and Slater margins.

Everything here is deliberately exact at desk scale: the dynamic optimum is
enumerated over all K^T action sequences (behind a hard size guard that
fails loudly), the LP relaxation runs on a dense simplex, and the Slater
parameters enumerate actions or policies outright.  The brute-force and LP
routes are kept independent so they can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .core import Instance, StochasticModel, ValidationError
from .environments import sample_instance
from .simplex import solve_lp

ENUMERATION_GUARD = 10_000_000
#: Largest dense simplex tableau opt_lp_relax may allocate, in MiB.  Its
#: equality block and the solver's working copies are of the same size.
LP_TABLEAU_GUARD_MIB = 256
_CHUNK = 1 << 15

#: Stream id for deriving per-sample seeds in Monte Carlo estimation.
_MC_STREAM_SALT = 0x5EED


class SizeGuardError(ValueError):
    """Enumeration would exceed the configured node guard, or a dense LP its
    memory guard."""


@dataclass(frozen=True)
class OracleReport:
    """Offline quantities with the method that produced them."""

    opt_value: float
    method: str
    opt_actions: tuple[int, ...] | None = None
    stderr: float | None = None
    per_draw_method: str | None = None

    def to_dict(self) -> dict:
        return {
            "opt_value": self.opt_value,
            "method": self.method,
            "opt_actions": list(self.opt_actions) if self.opt_actions is not None else None,
            "stderr": self.stderr,
            "per_draw_method": self.per_draw_method,
        }


def _exceeds_guard(K: int, T: int, guard: int) -> bool:
    """Whether K**T > guard, without building K**T (which may have millions
    of digits): the product stops once it passes guard, and for K <= 1,
    which never grows, one factor decides."""
    power = 1
    for _ in range(T if K > 1 else 1):
        power *= K
        if power > guard:
            return True
    return False


def _guard(K: int, T: int, guard: int, what: str):
    if _exceeds_guard(K, T, guard):
        raise SizeGuardError(
            f"{what} exceeds the guard of {guard} nodes; "
            "refusing rather than silently approximating"
        )


def _sequence_chunks(T: int, K: int):
    """Yield (codes, digits) blocks covering all K^T sequences in
    lexicographic order; digit t is round t+1's action."""
    total = K**T
    place = K ** np.arange(T - 1, -1, -1, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        codes = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        digits = (codes[:, None] // place[None, :]) % K
        yield codes, digits


def _require_constraints(source):
    """Refuse a Slater parameter of a source with no constraints (m = n = 0):
    a minimum over an empty constraint set has no value."""
    if not source.num_constraints:
        raise ValidationError(
            "the constraint set is empty (m = n = 0): no Slater parameter to compute"
        )


def opt_bruteforce(instance: Instance, guard: int = ENUMERATION_GUARD) -> OracleReport:
    """Exact dynamic optimum by enumeration of all K^T action sequences.

    Feasibility is sum_t g_{t,i}(x_t) <= 0 for every cost and
    sum_t h_{t,j}(x_t) <= beta_j * T for every resource.  Ties resolve to the
    lexicographically smallest optimal sequence.  The all-void sequence is
    always feasible, so the value is at least 0.
    """
    T, K = instance.horizon, instance.num_actions
    _guard(K, T, guard, f"brute-force optimum over {K}^{T} sequences")
    m, n = instance.num_general, instance.num_resources
    F, G, H = instance.rows
    index = instance.index
    limits = instance.budget.limits

    best_value = -np.inf
    best_code = -1
    for codes, digits in _sequence_chunks(T, K):
        values = F[index, digits].sum(axis=1)
        feasible = np.ones(codes.shape[0], dtype=bool)
        for i in range(m):
            feasible &= G[index, i, digits].sum(axis=1) <= 0.0
        for j in range(n):
            feasible &= H[index, j, digits].sum(axis=1) <= limits[j]
        if not feasible.any():
            continue
        masked = np.where(feasible, values, -np.inf)
        k = int(np.argmax(masked))
        if masked[k] > best_value:
            best_value = float(masked[k])
            best_code = int(codes[k])

    if best_code < 0:  # unreachable on validated instances (void is feasible)
        raise ValidationError("no feasible action sequence found")

    place = K ** np.arange(T - 1, -1, -1, dtype=np.int64)
    actions = tuple(int(d) for d in (best_code // place) % K)
    return OracleReport(opt_value=best_value, method="brute_force", opt_actions=actions)


def _grouped_rounds(instance: Instance):
    """Group identical rounds (bitwise-equal rows) for the LP: each row is
    keyed once, and a group's representative is its first round.

    By symmetry the LP has an optimum that puts the same per-round
    distribution on identical rounds, so aggregating them into one convexity
    row with the group count as mass is exact, not an approximation.
    """
    rows, first, uses = np.unique(instance.index, return_index=True, return_counts=True)
    groups: dict[bytes, int] = {}
    counts: list[int] = []
    reps: list[int] = []
    for k in np.argsort(first).tolist():
        key = b"".join(stack[rows[k]].tobytes() for stack in instance.rows)
        g = groups.get(key)
        if g is None:
            groups[key] = len(counts)
            counts.append(int(uses[k]))
            reps.append(int(first[k]))
        else:
            counts[g] += int(uses[k])
    return np.asarray(reps, dtype=np.int64), np.asarray(counts, dtype=np.float64)


def opt_lp_relax(instance: Instance) -> OracleReport:
    """Upper bound on the dynamic optimum via per-round action distributions.

    maximize  sum_t sum_x f_t(x) z_{t,x}
    s.t.      z >= 0,  sum_x z_{t,x} = 1 for every t,
              sum_{t,x} g_{t,i}(x) z_{t,x} <= 0,
              sum_{t,x} h_{t,j}(x) z_{t,x} <= beta_j T.

    Always at least the brute-force optimum.  Identical rounds are merged
    exactly before solving (see _grouped_rounds).  Raises SizeGuardError
    before allocating when the dense tableau would exceed
    LP_TABLEAU_GUARD_MIB.
    """
    K = instance.num_actions
    m, n = instance.num_general, instance.num_resources
    reps, counts = _grouped_rounds(instance)
    G = reps.shape[0]
    nvars = G * K
    M = m + n
    # (M + G) rows x (variables, M slacks, G artificials, rhs) float64
    tableau_mib = 8 * (M + G) * (nvars + M + G + 1) / 2**20
    if tableau_mib > LP_TABLEAU_GUARD_MIB:
        raise SizeGuardError(
            f"LP relaxation over {G} distinct rounds x {K} actions needs a "
            f"{tableau_mib:.0f} MiB dense tableau, above the guard of "
            f"{LP_TABLEAU_GUARD_MIB} MiB; refusing to allocate it"
        )

    rows = instance.index[reps]
    f, g, h = (stack[rows] for stack in instance.rows)
    c = f.reshape(-1)
    A_eq = np.zeros((G, nvars))
    for k in range(G):
        A_eq[k, k * K : (k + 1) * K] = 1.0
    b_eq = counts

    A_ub = np.concatenate([g, h], axis=1).transpose(1, 0, 2).reshape(M, nvars)
    b_ub = np.concatenate([np.zeros(m), instance.budget.limits])

    result = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    return OracleReport(opt_value=result.value, method="lp_relaxation")


def opt_stoc_estimate(
    model: StochasticModel,
    T: int,
    num_samples: int,
    seed: int,
    guard: int = ENUMERATION_GUARD,
) -> OracleReport:
    """Monte Carlo estimate of E[OPT(gamma)] over sampled length-T sequences.

    Each sample i uses the seed derived from (seed, i), so growing
    num_samples extends the draw stream without changing earlier draws.
    Per-draw optima are exact enumeration when K^T fits the guard and the LP
    upper bound otherwise; the fallback is flagged in ``per_draw_method``.
    """
    if num_samples < 1:
        raise ValidationError(f"num_samples must be >= 1, got {num_samples}")
    K = model.actions.count
    use_bruteforce = not _exceeds_guard(K, T, guard)
    values = np.empty(num_samples)
    for i in range(num_samples):
        draw_seed = rng.derive_seed(seed, _MC_STREAM_SALT + i)
        inst = sample_instance(model, T, draw_seed)
        if use_bruteforce:
            values[i] = opt_bruteforce(inst, guard).opt_value
        else:
            values[i] = opt_lp_relax(inst).opt_value
    stderr = (
        float(values.std(ddof=1) / np.sqrt(num_samples)) if num_samples > 1 else None
    )
    return OracleReport(
        opt_value=float(values.mean()),
        method="monte_carlo",
        stderr=stderr,
        per_draw_method="brute_force" if use_bruteforce else "lp_relaxation",
    )


def slater_adv(instance: Instance) -> float:
    """Adversarial Slater parameter by per-round decomposition.

    The minimum over action sequences of the max over rounds separates
    across rounds, so rho_adv = -max_t min_x max_i g~_{t,i}(x).
    """
    _require_constraints(instance)
    per_row = instance.unified_rows.max(axis=1).min(axis=1)
    return float(-per_row[instance.index].max())


def slater_adv_bruteforce(instance: Instance, guard: int = ENUMERATION_GUARD) -> float:
    """Adversarial Slater parameter by enumeration over full sequences.

    Independent route for cross-validating the per-round decomposition:
    rho_adv = -min over sequences of max over t of max_i g~_{t,i}(x_t).
    """
    T, K = instance.horizon, instance.num_actions
    _require_constraints(instance)
    _guard(K, T, guard, f"brute-force Slater over {K}^{T} sequences")
    colmax = instance.unified_rows.max(axis=1)  # (S, K)
    worst = np.inf
    for _, digits in _sequence_chunks(T, K):
        seq_scores = colmax[instance.index, digits].max(axis=1)
        worst = min(worst, float(seq_scores.min()))
    return -worst


def slater_stoc(model: StochasticModel, guard: int = ENUMERATION_GUARD) -> float:
    """Stochastic Slater parameter by exact enumeration of deterministic
    policies pi: support -> actions.

    rho_stoc = -min over policies of max over constraints of the
    probability-weighted expected unified constraint value.
    """
    S, K = model.support_size, model.actions.count
    _require_constraints(model)
    _guard(K, S, guard, f"policy enumeration over {K}^{S} policies")
    # weighted[s, x, i] = p_s * g~_i(x) under support tuple s
    weighted = model.probs[:, None, None] * model.unified_rows.transpose(0, 2, 1)
    best = np.inf
    for _, digits in _sequence_chunks(S, K):
        expect = weighted[np.arange(S), digits].sum(axis=1)  # (chunk, M)
        scores = expect.max(axis=1)
        best = min(best, float(scores.min()))
    return -best


def alpha(rho_adv: float) -> float:
    """The competitive fraction rho / (1 + rho)."""
    if rho_adv < 0.0:
        raise ValidationError(f"rho must be >= 0, got {rho_adv!r}")
    return rho_adv / (1.0 + rho_adv)
