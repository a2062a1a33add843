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
lockstep, each from lambda_1 = 0 over the whole horizon.  It reads each
round's inputs by index from a row table (F (S, K), U (S, M, K),
H (S, n, K)) through an (R, B) index of rows, and every operation in it is
elementwise per lane, so each lane is bit for bit the run it would be on
its own.  :func:`run_lanes` plays one lane per instance over one table of
the instances' rows (an instance is (F, G, H) stacks of input rows plus a
row index per round); :func:`run` is its one-lane case.  Within a lane the
dual state is a chain; lanes share only the loop.  A run's stopping time,
its last gate-open round, is the Trajectory's ``stopping_time`` field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import Instance, Trajectory, ValidationError
from .dual_ogd import OgdConfig, learning_rate
from .lagrangian import penalties

#: Rounds gathered from the row table at a time when lanes read it by index.
_BLOCK = 256


def default_config(instance: Instance, delta: float = 0.05) -> OgdConfig:
    """OgdConfig with the closed-form learning-rate schedule."""
    return OgdConfig(
        eta=learning_rate(instance.horizon, instance.num_constraints, delta),
        delta=delta,
    )


def _exact_sum(values: np.ndarray) -> Fraction:
    """The exact rational sum of float ``values``: every float is an integer
    over a power of two, so the sum is one integer over the largest of them."""
    ratios = [h.as_integer_ratio() for h in values.tolist() if h]
    den = max((d for _, d in ratios), default=1)
    return Fraction(sum(num * (den // d) for num, d in ratios), den)


def _play(table, index, budget, void, eta):
    """Play R lanes in lockstep from lambda_1 = 0, zero consumption and an
    open gate: lane r plays the rows ``index[r]`` of the (R, B) index from
    ``table`` = (F (S, K), U (S, M, K), H (S, n, K)).

    A lane's consumption totals are summed exactly only once a resource
    nears its cutoff.  Returns the per-round arrays with a leading lane axis,
    keyed by their Trajectory field names (``duals`` holds
    lambda_1..lambda_{B+1}).
    """
    F, U, H = table
    R, B = index.shape
    M, n = U.shape[1], H.shape[1]
    T = budget.horizon
    # The exact per-resource gate cutoffs beta_j * T - 1.
    thresholds = [Fraction(float(b)) * T - 1 for b in budget.per_round_budget]
    # Float pre-filter for the gate: below thr_fast the exact comparison is
    # guaranteed to pass (band dominates the worst-case accumulation drift
    # of up to T float additions plus the threshold's own rounding), so the
    # exact rational comparison only runs once a resource nears its cutoff.
    band = (4.0 * T + 8.0) * np.spacing(budget.limits + T)
    thr_fast = (np.array([float(thr) for thr in thresholds]) - band)[:, None]

    lanes = np.arange(R)
    exact = {}  # lane -> its exact consumption totals, once it nears a cutoff
    is_open = np.ones(R, dtype=bool)
    all_open = True
    # A closed lane never reopens, so it is held to an infinite threshold and
    # the pre-filter stays one comparison while no open lane nears a cutoff.
    thr_lane = thr_fast.repeat(R, axis=1)

    # Round-major buffers with lanes last; lam (M, R) and cum (n, R) are
    # views of the current round's rows.
    out_actions = np.empty((B, R), dtype=np.int64)
    out_candidates = np.empty((B, R), dtype=np.int64)
    out_gate = np.empty((B, R), dtype=bool)
    out_duals = np.empty((B + 1, M, R))
    out_cum = np.empty((B + 1, n, R))
    out_rewards = np.empty((R, B))
    out_unified = np.empty((R, B, M))
    out_duals[0] = 0.0
    out_cum[0] = 0.0
    lam, cum = out_duals[0], out_cum[0]

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
                    if r not in exact:
                        played = H[index[r, :t], :, out_actions[:t, r]]  # (t, n)
                        exact[r] = [_exact_sum(played[:, j]) for j in range(n)]
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
                if exact:
                    by_lane = col.T.tolist()
                    for r, totals in exact.items():
                        for j, h in enumerate(by_lane[r]):
                            if h:
                                totals[j] += Fraction(h)
        acts = out_actions[t0:t1]  # (b, R)
        steps = np.arange(t1 - t0)[:, None]
        out_rewards[:, t0:t1] = Fb[steps, lanes, acts].T
        out_unified[:, t0:t1] = Ub[steps, :, lanes, acts].transpose(1, 0, 2)

    return dict(
        actions=np.ascontiguousarray(out_actions.T),
        candidates=np.ascontiguousarray(out_candidates.T),
        rewards=out_rewards,
        unified_values=out_unified,
        duals=out_duals.transpose(2, 0, 1),
        gate_open=np.ascontiguousarray(out_gate.T),
        cumulative_consumption=out_cum[1:].transpose(2, 0, 1),
    )


def _trajectory(rounds: dict, lane: int, instance, config: OgdConfig) -> Trajectory:
    """Lane ``lane`` of a :func:`_play` result as a Trajectory; ``instance``
    supplies the shape."""
    fields = {key: value[lane] for key, value in rounds.items()}
    open_rounds = np.flatnonzero(fields["gate_open"])
    return Trajectory(
        **fields,
        stopping_time=int(open_rounds[-1] + 1) if open_rounds.size else 0,
        num_general=instance.num_general,
        num_resources=instance.num_resources,
        eta=config.eta,
        delta=config.delta,
    )


def run(instance: Instance, config: OgdConfig) -> Trajectory:
    """Execute the full horizon from lambda_1 = 0: the one-lane case of
    :func:`run_lanes`, so it validates the instance first and aborts before
    round 1 on any issue."""
    return next(run_lanes([instance], config))


def lane_key(instance: Instance) -> tuple:
    """What the lanes of one :func:`run_lanes` call must share: the horizon,
    the per-round budget (bitwise), the action set and (m, n)."""
    budget = instance.budget
    return (budget.horizon, budget.per_round_budget.tobytes(), instance.actions,
            instance.num_general, instance.num_resources)


def run_lanes(instances: list[Instance], config: OgdConfig) -> Iterator[Trajectory]:
    """``run(instance, config)`` for each of ``instances``, played in
    lockstep as one lane each.

    Each distinct instance validates itself, in order, and the first
    invalid one raises before any round is played; so does any lane whose
    :func:`lane_key` differs from the first lane's (the cells of one source
    share it).  The lanes read one table, the row stacks of the instances,
    so no lane's T-round stacks are built.  Returns the lanes' Trajectories
    lazily, in order, so a caller can handle one at a time.
    """
    distinct = list({id(inst): inst for inst in instances}.values())
    for inst in distinct:
        inst.validate().raise_if_invalid()
    first = instances[0]
    want = lane_key(first)
    for r, inst in enumerate(instances):
        if lane_key(inst) != want:
            raise ValidationError(
                f"lane {r} differs from lane 0 in its horizon, budget, action set "
                "or (m, n); lanes must share them"
            )
    start = np.cumsum([0] + [len(inst.rows[0]) for inst in distinct]).tolist()
    offset = dict(zip(map(id, distinct), start))
    parts = [(i.rows[0], i.unified_rows, i.rows[2]) for i in distinct]
    table = tuple(map(np.concatenate, zip(*parts)))  # (F, U, H)
    index = np.stack([offset[id(inst)] + inst.index for inst in instances])
    rounds = _play(table, index, first.budget, first.actions.void_index, config.eta)
    return (_trajectory(rounds, r, first, config) for r in range(len(instances)))
