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

One round loop, :func:`_play`, plays R independent runs ("lanes") in
lockstep.  It reads each round's inputs by index from a row table
(F (S, K), U (S, M, K), H (S, n, K)) through an (R, B) index of rows, and
every operation in it is elementwise per lane, so each lane is bit for bit
the run it would be on its own.  :func:`run_lanes` plays one lane per
instance over one table of the instances' rows (an instance is (F, G, H)
stacks of input rows plus a row index per round); :func:`run`
is its one-lane case, :func:`run_batch` its lanes for the seeds of a
source, and :func:`step` one lane for one round from a given state.
Within a lane the dual state is a chain; lanes share only the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import (
    ActionSet,
    BudgetSpec,
    DualVector,
    InputTuple,
    Instance,
    RoundRecord,
    Trajectory,
    ValidationError,
    unify_constraints,
)
from .dual_ogd import OgdConfig, learning_rate
from .environments import StochasticModel, sample_instance
from .lagrangian import penalties

#: Rounds gathered from the row table at a time when lanes read it by index.
_BLOCK = 256


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


def _exact_sum(values: np.ndarray) -> Fraction:
    """The exact rational sum of float ``values``: every float is an integer
    over a power of two, so the sum is one integer over the largest of them."""
    ratios = [h.as_integer_ratio() for h in values.tolist() if h]
    den = max((d for _, d in ratios), default=1)
    return Fraction(sum(num * (den // d) for num, d in ratios), den)


def _play(table, index, budget, void, eta, lam_start, cum_start, exact, is_open):
    """Play R lanes in lockstep: lane r plays the rows ``index[r]`` of the
    (R, B) index from ``table`` = (F (S, K), U (S, M, K), H (S, n, K)),
    starting from duals ``lam_start`` (R, M), float consumption totals
    ``cum_start`` (R, n), their exact values ``exact`` (one list per lane)
    and the gate states ``is_open`` (R,).

    A lane whose ``exact`` is None has played only this block so far (a run
    from zero): its totals are summed exactly only once a resource nears its
    cutoff.  Returns the per-round arrays with a leading lane axis, keyed by
    their Trajectory field names (``duals`` holds lambda_1..lambda_{B+1}),
    and the end state (lam, cum, exact, is_open) in the same layout.
    """
    F, U, H = table
    R, B = index.shape
    M, n = U.shape[1], H.shape[1]
    thresholds = gate_thresholds(budget)
    # Float pre-filter for the gate: below thr_fast the exact comparison is
    # guaranteed to pass (band dominates the worst-case accumulation drift
    # of up to T float additions plus the threshold's own rounding), so the
    # exact rational comparison only runs once a resource nears its cutoff.
    T = budget.horizon
    band = (4.0 * T + 8.0) * np.spacing(budget.limits + T)
    thr_fast = (np.array([float(thr) for thr in thresholds]) - band)[:, None]

    lanes = np.arange(R)
    exact = list(exact)
    exact_lanes = [r for r in range(R) if exact[r] is not None]
    is_open = np.array(is_open, dtype=bool)
    all_open = bool(is_open.all())
    # A closed lane never reopens, so it is held to an infinite threshold and
    # the pre-filter stays one comparison while no open lane nears a cutoff.
    thr_lane = np.where(is_open, thr_fast, np.inf)

    # Round-major buffers with lanes last; lam (M, R) and cum (n, R) are
    # views of the current round's rows.
    out_actions = np.empty((B, R), dtype=np.int64)
    out_candidates = np.empty((B, R), dtype=np.int64)
    out_gate = np.empty((B, R), dtype=bool)
    out_duals = np.empty((B + 1, M, R))
    out_cum = np.empty((B + 1, n, R))
    out_rewards = np.empty((R, B))
    out_unified = np.empty((R, B, M))
    lam = out_duals[0]
    lam[:] = np.asarray(lam_start).T
    cum = out_cum[0]
    cum[:] = np.asarray(cum_start).T

    for t0 in range(0, B, _BLOCK):
        t1 = min(t0 + _BLOCK, B)
        rows = index[:, t0:t1].T  # (b, R)
        Fb = F[rows]  # (b, R, K)
        Ub = U[rows].transpose(0, 2, 1, 3)  # (b, M, R, K)
        Hb = H[rows].transpose(0, 2, 1, 3)  # (b, n, R, K)
        dual_steps = eta * Ub  # eta * g~ of every action, the products the update adds
        for i in range(t1 - t0):
            t = t0 + i
            g_t = Ub[i]
            values = Fb[i] - penalties(g_t, lam)
            candidate = values.argmax(axis=1)
            if n and not (cum <= thr_lane).all():
                near = is_open & ~(cum <= thr_fast).all(axis=0)
                for r in np.flatnonzero(near):
                    if exact[r] is None:
                        played = H[index[r, :t], :, out_actions[:t, r]]  # (t, n)
                        exact[r] = [_exact_sum(played[:, j]) for j in range(n)]
                        exact_lanes.append(r)
                    if any(c > thr for c, thr in zip(exact[r], thresholds)):
                        is_open[r] = False
                        thr_lane[:, r] = np.inf
                        all_open = False
            action = candidate if all_open else np.where(is_open, candidate, void)
            out_actions[t] = action
            out_candidates[t] = candidate
            out_gate[t] = is_open
            lam = np.maximum(0.0, lam + dual_steps[i][:, lanes, action], out=out_duals[t + 1])
            if n:
                col = Hb[i][:, lanes, action]  # (n, R)
                cum = np.add(cum, col, out=out_cum[t + 1])
                if exact_lanes:
                    by_lane = col.T.tolist()
                    for r in exact_lanes:
                        for j, h in enumerate(by_lane[r]):
                            if h:
                                exact[r][j] += Fraction(h)
        acts = out_actions[t0:t1]  # (b, R)
        steps = np.arange(t1 - t0)[:, None]
        out_rewards[:, t0:t1] = Fb[steps, lanes, acts].T
        out_unified[:, t0:t1] = Ub[steps, :, lanes, acts].transpose(1, 0, 2)

    rounds = dict(
        actions=np.ascontiguousarray(out_actions.T),
        candidates=np.ascontiguousarray(out_candidates.T),
        rewards=out_rewards,
        unified_values=out_unified,
        duals=out_duals.transpose(2, 0, 1),
        gate_open=np.ascontiguousarray(out_gate.T),
        cumulative_consumption=out_cum[1:].transpose(2, 0, 1),
    )
    return rounds, (lam.T, cum.T, exact, is_open)


def _trajectory(rounds: dict, lane: int, instance, config: OgdConfig) -> Trajectory:
    """Lane ``lane`` of a :func:`_play` result as a Trajectory; ``instance``
    supplies the shape."""
    fields = {key: value[lane] for key, value in rounds.items()}
    return Trajectory(
        **fields,
        stopping_time=_last_open_round(fields["gate_open"]),
        num_general=instance.num_general,
        num_resources=instance.num_resources,
        eta=config.eta,
        delta=config.delta,
    )


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
        (inp.rewards[None], unified[None], inp.consumptions[None]),
        np.zeros((1, 1), dtype=np.int64), budget, actions.void_index, config.eta,
        state.dual.values[None], state.cumulative_consumption[None],
        [list(state.exact_totals())], [not state.gate_forced_closed],
    )
    record = RoundRecord(
        round=state.round,
        action=int(rounds["actions"][0, 0]),
        candidate_action=int(rounds["candidates"][0, 0]),
        reward=float(rounds["rewards"][0, 0]),
        unified_values=rounds["unified_values"][0, 0],
        dual_before=state.dual,
        gate_open=bool(rounds["gate_open"][0, 0]),
        cumulative_consumption=rounds["cumulative_consumption"][0, 0],
    )
    new_state = AllocatorState(
        round=state.round + 1,
        dual=DualVector(lam[0]),
        cumulative_consumption=cum[0],
        gate_forced_closed=not is_open[0],
        exact_consumption=tuple(exact[0]),
    )
    return record, new_state


def run(instance: Instance, config: OgdConfig) -> Trajectory:
    """Execute the full horizon from lambda_1 = 0: the one-lane case of
    :func:`run_lanes`, so it validates the instance first and aborts before
    round 1 on any issue."""
    return next(run_lanes([instance], config))


def run_lanes(instances: list[Instance], config: OgdConfig) -> Iterator[Trajectory]:
    """``run(instance, config)`` for each of ``instances``, played in
    lockstep as one lane each.

    Each distinct instance validates itself, in order, and the first
    invalid one raises before any round is played; so does any lane whose
    horizon, per-round budget (bitwise), action set or (m, n) differs from
    the first lane's (the cells of one source share them).  The lanes read
    one table, the row stacks of the instances, so no lane's T-round stacks
    are built.  Returns the lanes' Trajectories lazily, in order, so a
    caller can handle one at a time.
    """
    distinct = list({id(inst): inst for inst in instances}.values())
    for inst in distinct:
        inst.validate().raise_if_invalid()

    def shared(inst):
        budget = inst.budget
        return (budget.horizon, budget.per_round_budget.tobytes(), inst.actions,
                inst.num_general, inst.num_resources)

    first = instances[0]
    want = shared(first)
    for r, inst in enumerate(instances):
        if shared(inst) != want:
            raise ValidationError(
                f"lane {r} differs from lane 0 in its horizon, budget, action set "
                "or (m, n); lanes must share them"
            )
    start = np.cumsum([0] + [len(inst.rows[0]) for inst in distinct]).tolist()
    offset = dict(zip(map(id, distinct), start))
    parts = [(i.rows[0], i.unified_rows, i.rows[2]) for i in distinct]
    table = tuple(map(np.concatenate, zip(*parts)))  # (F, U, H)
    index = np.stack([offset[id(inst)] + inst.index for inst in instances])
    R, M, n = len(instances), first.num_constraints, first.num_resources
    rounds, _ = _play(
        table, index, first.budget, first.actions.void_index, config.eta,
        np.zeros((R, M)), np.zeros((R, n)), [None] * R, [True] * R,
    )
    return (_trajectory(rounds, r, first, config) for r in range(R))


def run_batch(
    source: Instance | StochasticModel, horizon: int, seeds, config: OgdConfig
) -> Iterator[Trajectory]:
    """One run per seed, played in lockstep by :func:`run_lanes`: lane r is
    bit for bit ``run(instance_r, config)``, where instance_r is
    ``sample_instance(source, horizon, seeds[r])`` for a model and the
    instance itself (of horizon ``horizon``) for a fixed instance."""
    if isinstance(source, Instance):
        if horizon != source.horizon:
            raise ValidationError(
                f"horizon {horizon} differs from the instance horizon {source.horizon}"
            )
        return run_lanes([source] * len(seeds), config)
    return run_lanes([sample_instance(source, horizon, s) for s in seeds], config)


def stopping_time(trajectory: Trajectory) -> int:
    """The last gate-open round; 0 if the gate was never open, T if it never
    closed.  Every round after it plays the void action."""
    return _last_open_round(trajectory.gate_open)
