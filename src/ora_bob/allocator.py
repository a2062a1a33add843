"""The allocation controller: greedy Lagrangian primal step behind a hard
budget gate, with a projected-gradient dual update.

Per round: compute the candidate action maximizing the instantaneous
Lagrangian at the current duals; play it if every resource's cumulative
consumption through the previous round is at most beta_j*T - 1, otherwise
play the void action; then update the duals with the unified constraint
vector of the action actually played.  The -1 slack plus h <= 1 per round
makes the hard caps beta_j*T unbreakable.

The gate comparison is evaluated in exact rational arithmetic over the
stored values (every float is an exact rational), so the hard caps hold in
real arithmetic, not merely up to float rounding: otherwise a budget like
1/3 whose cap beta*T rounds upward could admit one play too many.  Recorded
consumptions stay ordinary floats.

One round loop serves both entry points: :func:`run` plays the whole
horizon as one block and :func:`step` plays a one-round block from a given
state.  A run is strictly sequential (the dual state is a chain); distinct
runs are independent and may execute in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    ActionSet,
    BudgetSpec,
    DualVector,
    InputTuple,
    Instance,
    RoundRecord,
    Trajectory,
    unify_constraints,
)
from .dual_ogd import OgdConfig, learning_rate
from .lagrangian import penalties


def gate_thresholds(budget: BudgetSpec) -> tuple[Fraction, ...]:
    """The exact per-resource gate cutoffs beta_j * T - 1."""
    T = budget.horizon
    return tuple(
        Fraction(float(b)) * T - 1 for b in budget.per_round_budget
    )


@dataclass(frozen=True)
class AllocatorState:
    """Dual state and consumption bookkeeping between rounds.

    ``gate_forced_closed`` is monotone: once the gate closes, consumption is
    frozen (the void action consumes nothing), so it can never reopen.
    ``exact_consumption`` carries the rational-exact running sums the gate
    compares; when absent (hand-built states) the float totals are used as
    their exact rational values.
    """

    round: int
    dual: DualVector
    cumulative_consumption: np.ndarray
    gate_forced_closed: bool = False
    exact_consumption: tuple[Fraction, ...] | None = None

    def exact_totals(self) -> tuple[Fraction, ...]:
        if self.exact_consumption is not None:
            return self.exact_consumption
        return tuple(Fraction(float(c)) for c in self.cumulative_consumption)


def initial_state(num_constraints: int, num_resources: int) -> AllocatorState:
    """Round-1 state: lambda_1 = 0 (fixed by the algorithm, not configurable)."""
    return AllocatorState(
        round=1,
        dual=DualVector.zeros(num_constraints),
        cumulative_consumption=np.zeros(num_resources),
        gate_forced_closed=False,
        exact_consumption=(Fraction(0),) * num_resources,
    )


def gate_open(state: AllocatorState, budget: BudgetSpec) -> bool:
    """True iff sum_{s<t} h_{s,j}(x_s) <= beta_j*T - 1 for every resource j,
    compared in exact arithmetic.  Vacuously true with no budget resources.
    """
    if budget.num_resources == 0:
        return True
    totals = state.exact_totals()
    return all(c <= thr for c, thr in zip(totals, gate_thresholds(budget)))


def default_config(instance: Instance, delta: float = 0.05) -> OgdConfig:
    """OgdConfig with the closed-form learning-rate schedule."""
    return OgdConfig(
        eta=learning_rate(instance.horizon, instance.num_constraints, delta),
        delta=delta,
    )


def _last_open_round(gate: np.ndarray) -> int:
    open_rounds = np.nonzero(gate)[0]
    return int(open_rounds[-1] + 1) if open_rounds.size else 0


def _play(rewards, unified, cons, budget, void, eta, lam, cum, exact, is_open):
    """Play the stacked rounds ``rewards`` (B, K), ``unified`` (B, M, K) and
    ``cons`` (B, n, K) from duals ``lam``, float consumption totals ``cum``,
    their exact values ``exact`` and the gate state ``is_open``.

    ``exact=None`` means the totals so far are this block's own plays (a run
    from zero): they are summed exactly only once a resource nears its
    cutoff.  Returns the per-round arrays, keyed by their Trajectory field
    names (``duals`` holds lambda_1..lambda_{B+1}), and the end state
    (lam, cum, exact, is_open).
    """
    B, M, _ = unified.shape
    n = cons.shape[1]
    thresholds = gate_thresholds(budget)
    # Float pre-filter for the gate: below thr_fast the exact comparison is
    # guaranteed to pass (band dominates the worst-case accumulation drift
    # of up to T float additions plus the threshold's own rounding), so the
    # exact rational comparison only runs once a resource nears its cutoff.
    T = budget.horizon
    band = (4.0 * T + 8.0) * np.spacing(budget.limits + T)
    thr_fast = np.array([float(thr) for thr in thresholds]) - band

    out_actions = np.empty(B, dtype=np.int64)
    out_candidates = np.empty(B, dtype=np.int64)
    out_duals = np.empty((B + 1, M))
    out_duals[0] = lam
    out_gate = np.empty(B, dtype=bool)
    out_cum = np.empty((B, n))

    for t in range(B):
        g_t = unified[t]
        values = rewards[t] - penalties(g_t, lam)
        candidate = int(np.argmax(values))
        if is_open and n and not np.all(cum <= thr_fast):
            if exact is None:
                played = cons[np.arange(t), :, out_actions[:t]]  # (t, n)
                exact = [
                    sum((Fraction(float(h)) for h in played[:, j] if h), Fraction(0))
                    for j in range(n)
                ]
            if any(c > thr for c, thr in zip(exact, thresholds)):
                is_open = False
        action = candidate if is_open else void
        gvec = g_t[:, action]
        out_actions[t] = action
        out_candidates[t] = candidate
        out_gate[t] = is_open
        lam = np.maximum(0.0, lam + eta * gvec)
        out_duals[t + 1] = lam
        if n:
            col = cons[t, :, action]
            cum = cum + col
            if exact is not None:
                for j in range(n):
                    h = col[j]
                    if h:
                        exact[j] += Fraction(float(h))
        out_cum[t] = cum

    idx = np.arange(B)
    rounds = dict(
        actions=out_actions,
        candidates=out_candidates,
        rewards=rewards[idx, out_actions],
        unified_values=unified[idx, :, out_actions],
        duals=out_duals,
        gate_open=out_gate,
        cumulative_consumption=out_cum,
    )
    return rounds, (lam, cum, exact, is_open)


def step(
    state: AllocatorState,
    inp: InputTuple,
    budget: BudgetSpec,
    actions: ActionSet,
    config: OgdConfig,
) -> tuple[RoundRecord, AllocatorState]:
    """One round: candidate, gate, play, dual update.

    The dual update uses the unified vector of the action actually played
    (the void action when the gate is closed), not the candidate's.
    """
    unified = unify_constraints(inp, budget).matrix
    rounds, (lam, cum, exact, is_open) = _play(
        inp.rewards[None], unified[None], inp.consumptions[None], budget,
        actions.void_index, config.eta, state.dual.values,
        state.cumulative_consumption, list(state.exact_totals()),
        not state.gate_forced_closed,
    )
    record = RoundRecord(
        round=state.round,
        action=int(rounds["actions"][0]),
        candidate_action=int(rounds["candidates"][0]),
        reward=float(rounds["rewards"][0]),
        unified_values=rounds["unified_values"][0],
        dual_before=state.dual,
        gate_open=bool(rounds["gate_open"][0]),
        cumulative_consumption=rounds["cumulative_consumption"][0],
    )
    new_state = AllocatorState(
        round=state.round + 1,
        dual=DualVector(lam),
        cumulative_consumption=cum,
        gate_forced_closed=not is_open,
        exact_consumption=tuple(exact),
    )
    return record, new_state


def run(instance: Instance, config: OgdConfig) -> Trajectory:
    """Execute the full horizon from lambda_1 = 0.

    Validates the instance first and aborts before round 1 on any issue,
    then plays every round in one :func:`_play` block, the same round loop
    :func:`step` runs on a one-round block.
    """
    instance.validate().raise_if_invalid()
    rounds, _ = _play(
        instance.rewards_stack, instance.unified_stack, instance.consumption_stack,
        instance.budget, instance.actions.void_index, config.eta,
        np.zeros(instance.num_constraints), np.zeros(instance.num_resources),
        None, True,
    )
    return Trajectory(
        **rounds,
        stopping_time=_last_open_round(rounds["gate_open"]),
        num_general=instance.num_general,
        num_resources=instance.num_resources,
        eta=config.eta,
        delta=config.delta,
    )


def stopping_time(trajectory: Trajectory) -> int:
    """The last gate-open round; 0 if the gate was never open, T if it never
    closed.  Every round after it plays the void action."""
    return _last_open_round(trajectory.gate_open)
