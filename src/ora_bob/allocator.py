"""The allocation controller: greedy Lagrangian primal step behind a hard
budget gate, with a projected-gradient dual update.

Per round: compute the candidate action maximizing the instantaneous
Lagrangian at the current duals; play it if every resource's cumulative
consumption through the previous round is at most beta_j*T - 1, otherwise
play the void action; then update the duals with the unified constraint
vector of the action actually played.  The -1 slack plus h <= 1 per round
makes the hard caps beta_j*T unbreakable.

The gate comparison is evaluated exactly over the stored values, in
integers that count units of 2**-1074 (every float is a whole number of
them, see :data:`~ora_bob.core.EXACT_BITS`), so the hard caps hold in real
arithmetic, not merely up to float rounding: otherwise a budget like
1/3 whose cap beta*T rounds upward could admit one play too many.  Recorded
consumptions stay ordinary floats.

One round loop, :func:`_play`, plays R independent runs ("lanes") in
lockstep, each from lambda_1 = 0 over the whole horizon.  It reads each
round's inputs by index from a row table (F (S, K), U (M, S, K),
H (n, S, K)) through a (T, R) index of rows, and every operation in it is
elementwise per lane, so each lane is bit for bit the run it would be on
its own.  :func:`run_lanes` plays one lane per instance over one table of
the instances' rows (an instance is (F, G, H) stacks of input rows plus a
row index per round); :func:`run` is its one-lane case.  Within a lane the
dual state is a chain; lanes share only the loop.  A batch holds only the
loop's own state: each lane's candidates, duals, running consumption total
and the round its gate closed (its stopping time); each lane's Trajectory
looks the rest of its rounds up in its instance.

The gate's exact comparison runs only near a cutoff: below a float
pre-filter it is guaranteed to pass, and at the start of each block of
rounds one comparison shows whether any lane can reach the pre-filter
within the block (each round adds at most 1 to a total, plus rounding);
where none can, the block plays without per-round gate checks.

The loop plays a block one segment at a time.  A dual step moves each
multiplier by at most eta*|g~|, so the best response often stays the same
for many rounds.  At a segment's start the loop evaluates the next rounds'
Lagrangian values at the current duals in one stacked call, and a round
whose top-two gap exceeds what the dual steps in between (and float
rounding) can close is certified: its argmax is its candidate at its own
duals.  The segment runs to the first uncertified round, so within it the
actions are known and only the clipped dual recursion runs round by round.
Near a budget cutoff, or after a segment cut short by a near tie, rounds
are played one at a time.  Where segments fall changes no output value.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .core import EXACT_BITS, Instance, Trajectory, ValidationError, exact_sum, exact_value
from .dual_ogd import OgdConfig, learning_rate, penalties

#: Rounds gathered from the row table at a time when lanes read it by index.
_BLOCK = 256


def default_eta(T: int, M: int, delta: float) -> float:
    """The closed-form learning-rate schedule at horizon T for M
    constraints.  With M = 0 the dual vector is empty and eta has no effect
    on the run, so it is the M = 1 schedule."""
    return learning_rate(T, max(M, 1), delta)


def default_config(instance: Instance, delta: float = 0.05) -> OgdConfig:
    """OgdConfig with the closed-form learning-rate schedule."""
    return OgdConfig(
        eta=default_eta(instance.horizon, instance.num_constraints, delta),
        delta=delta,
    )


def _margins(F, U, eta, B):
    """(_BLOCK,) certification margins of a B-round run on the row table
    (F (S, K), U (M, S, K)): entry k bounds how far two actions' computed
    Lagrangian values can move against each other between a segment's first
    round and the k-th round after it (the derivation is in :func:`_play`)."""
    M = U.shape[0]
    if not M:
        return np.full(_BLOCK, -1.0)  # values without duals never move
    u = 2.0**-53
    # max |.| with no table-sized |.| temporary; rounding is monotone, so
    # fl(eta * u_max) is the largest |fl(eta * g~)|
    u_max = np.maximum(U.max(axis=(1, 2)), -U.min(axis=(1, 2)))
    s_max = eta * u_max
    # summed by fsum, not BLAS, so no CPU kernel picks the order
    su = math.fsum((s_max * u_max).tolist())
    delta = su * (1.0 + u * (2 * B + 1))
    r = (M + 2) * u * (float(max(F.max(), -F.min())) + 2.0 * B * su)
    r += M * 2.0**-1074
    return (2.0 * delta * np.arange(_BLOCK) + 4.0 * r) * (1.0 + 2.0**-20)


def _play(table, index, beta, void, eta):
    """Play R lanes in lockstep from lambda_1 = 0, zero consumption and an
    open gate: lane r plays the rows ``index[:, r]`` of the (T, R) index
    from ``table`` = (F (S, K), U (M, S, K), H (n, S, K)) under the
    per-round budgets ``beta[:, r]`` of the (n, R) ``beta``.

    Rows are gathered a block of up to ``_BLOCK`` rounds at a time into F
    and U buffers allocated once per call, U's laid out (M, _BLOCK, R, K) as
    :func:`~ora_bob.dual_ogd.penalties` stacks it.  The dual steps eta*U
    are formed once, on the table; a played dual step or consumption is read
    straight from the (M or n, S*K) tables at flat column s*K + x for row s
    and action x, so no block of either is built.  The block is played one
    segment at a time.  At a segment's first round t the Lagrangian values
    F - penalties(U, lambda_t) of the next w rounds are taken in one stacked
    call; round t's argmax is its candidate, and round t+k's argmax is
    certified to be round t+k's candidate while, in every lane, its top-two
    gap exceeds margins[k] (see :func:`_margins`).  The segment is round t
    plus the certified rounds after it, up to the first uncertified one.
    Its actions are known, so the played columns of the dual steps and
    consumptions are gathered once per segment, and the running consumption
    totals advance by one sequential ``np.add.accumulate`` seeded with them;
    only the clipped dual recursion lambda <- max(0, lambda + eta*g~) runs
    per round.

    A segment skips the gate check, so it starts only where the block guard
    below shows that no lane can near a cutoff within it.  Where it cannot
    start, or after a segment certified fewer than 4 rounds, rounds are
    played one at a time:
    1. take every lane's candidate, the argmax of F - penalties(U, lambda);
    2. check the gate, unless the block guard holds: the float totals are
       compared with a pre-filter, and only a lane past it has its totals
       summed exactly (once, by :func:`~ora_bob.core.exact_sum`, then kept
       as integers in units of 2**-EXACT_BITS, adding each round's
       :func:`~ora_bob.core.exact_value`, until its gate closes) and
       compared with its own exact cutoffs beta_j*T - 1 in the same units;
    3. play the candidate in open lanes and the void action in closed ones,
       gathering the played column of each lane with one flat index for both
       the dual step and the consumption totals.
    Every value a segment writes is the one these single rounds would
    write, so the result does not depend on where segments fall.

    Returns (candidates (R, T), closed_at (R,), duals (R, T+1, M)): lane r
    played its candidate before round closed_at[r] (T if its gate never
    closed) and the void action after; duals are lambda_1..lambda_{T+1}.
    """
    F, U, H = table
    T, R = index.shape
    S, K = F.shape
    M, n = U.shape[0], H.shape[0]
    # Each lane's exact per-resource gate cutoffs beta_j * T - 1, in units
    # of 2**-EXACT_BITS.
    unit = 1 << EXACT_BITS
    thresholds = [[exact_value(b) * T - unit for b in lane] for lane in beta.T.tolist()]
    # Float pre-filter for the gate, (n, R): below thr_fast the exact
    # comparison is guaranteed to pass (band dominates the worst-case
    # accumulation drift of up to T float additions plus the threshold's own
    # rounding), so the exact comparison only runs once a resource nears its
    # cutoff.
    band = (4.0 * T + 8.0) * np.spacing(beta * T + T)
    thr_fast = np.array([[thr / unit for thr in lane] for lane in thresholds])
    thr_fast = thr_fast.reshape(R, n).T - band

    # Block guard.  Validation bounds every consumption to [0, 1], so a
    # lane's float total after k <= T rounds stays below 2T, and each float
    # addition raises it by at most 1 + s/2, where s = ulp(2T + 2*_BLOCK)
    # bounds the spacing of every total and guard sum.  If
    # fl(cum + b + 2) <= thr_lane for every lane at the start of b rounds,
    # then cum + b + 2 <= thr_lane + s/2, and each total those rounds check,
    # after at most b - 1 additions, is at most
    # cum + (b - 1)(1 + s/2) <= thr_lane - 3 + b*s/2 <= thr_lane whenever
    # b*s <= 6.  No lane can then reach the pre-filter within them, so their
    # per-round check is skipped.  It is tested for each block, and where it
    # fails there, for each segment (b = w): a lane already past the
    # pre-filter fails it at any b, so near a cutoff the rounds go one at a
    # time, and only single rounds touch the exact totals.  With
    # b <= _BLOCK that holds at every T below 2**46 - _BLOCK; at larger T
    # every round is checked.
    guard = _BLOCK * np.spacing(2.0 * T + 2 * _BLOCK) <= 6.0

    # Certification.  A segment from round t evaluates round t+k's values
    # v^(x) = fl(F(x) - penalties(U(x), lambda_t)) at lambda_t, while round
    # t+k's candidate is the argmax of the same computation v(x) at
    # lambda_{t+k}.  With u = 2**-53, s_i = max|fl(eta*U_i)| (the entries the
    # dual steps add) and u_i = max|U_i| over the table:
    # - Drift.  A dual step is lambda' = max(0, fl(lambda + s)).  lambda is
    #   a float |s| away from lambda + s, so the nearest float is within
    #   2|s| of lambda and lambda_i <= 2T*s_i all run long; and
    #   |fl(z) - z| <= u|z|, so one step moves lambda_i by at most
    #   s_i + u(lambda_i + s_i) <= s_i(1 + u(2T + 1)) (the clip at 0 only
    #   shortens a move).  Over k steps the exact value F - <lambda, g~> of
    #   any action moves by at most k*Delta,
    #   Delta = sum_i s_i(1 + u(2T + 1)) u_i.
    # - Rounding.  penalties adds its M products in constraint order and the
    #   value subtracts the sum from F, so a computed value is within
    #   r = (M + 2) u (max|F| + sum_i 2T s_i u_i) + M 2**-1074 of the exact
    #   one (the dot-product bound gamma_M < (M + 1) u for M < 2**20, one u
    #   for the subtraction, and 2**-1075 for each product that underflows).
    # So if v^(x*) - v^(y) > 2k*Delta + 4r for every y != x*, then
    # v(x*) - v(y) > 0: x* is the unique argmax at lambda_{t+k} whatever the
    # k steps between were, and round t+k's candidate is x* in that lane.
    # _margins scales both terms by 1 + 2**-20, which covers the few
    # roundings (each at most u relative) in forming the margins and the gap.
    # Round t itself (k = 0) is evaluated at its own duals, so needs no
    # margin.  Closed lanes record candidates too, so the gap is the
    # minimum over every lane.
    margins = _margins(F, U, eta, T)
    # Flat (M or n, S*K) tables, row s and action x at column s*K + x; each
    # step is the one rounding fl(eta * g~) a dual step adds.
    steps, H = (eta * U).reshape(M, S * K), H.reshape(n, S * K)

    exact = {}  # open lane -> its exact consumption totals, once it nears a cutoff
    is_open = np.ones(R, dtype=bool)
    closed_at = np.full(R, T)  # the round each lane's gate closed, T while open
    all_open = True
    # A closed lane never reopens, so it is held to an infinite threshold and
    # the pre-filter stays one comparison while no open lane nears a cutoff.
    thr_lane = thr_fast.copy()

    # Round-major buffers with lanes last; lam (M, R) views the current
    # round's duals, and cum (n, R) is row 0 of a segment's running totals.
    out_candidates = np.empty((T, R), dtype=np.int64)
    out_duals = np.empty((T + 1, M, R))
    out_duals[0] = 0.0
    acc = np.zeros((_BLOCK + 1, n, R))
    lam, cum = out_duals[0], acc[0]
    # Block buffers, filled in place: the flat offsets s*K of each round's
    # rows, and the gathered F and U rows.
    row_base = np.empty((_BLOCK, R), dtype=np.intp)
    Fb = np.empty((_BLOCK, R, K))
    Ub = np.empty((M, _BLOCK, R, K))
    # Per-round scratch: the played column of every lane, and the gathered
    # dual step and consumptions.
    pick = np.empty(R, dtype=np.intp)
    step = np.empty((M, R))
    col = np.empty((n, R))
    # Per-segment gathers: constraint j's offset in the flat tables, plus a
    # played column, reads a round's values of every constraint in one take.
    step_base = np.arange(M)[:, None] * (S * K)
    cons_base = np.arange(n)[:, None] * (S * K)
    # Segment schedule: ``window`` is the widest next segment, doubled after
    # a segment certified to its end and twice the certified length after
    # one cut short.  A try cut short under 4 rounds costs more than single
    # rounds, so after one the loop plays ``wait`` single rounds before the
    # next try, a wait that doubles from 8 to 512 while tries stay short:
    # near ties at an equilibrium then cost little more than single rounds.
    window, backoff, wait = 2, 8, 0

    for t0 in range(0, T, _BLOCK):
        t1 = min(t0 + _BLOCK, T)
        b = t1 - t0
        rows = index[t0:t1]  # (b, R)
        np.multiply(rows, K, out=row_base[:b])
        # mode="clip" lets take write into the buffers unbuffered; every row
        # is in range
        F.take(rows, axis=0, out=Fb[:b], mode="clip")
        for j in range(M):
            U[j].take(rows, axis=0, out=Ub[j, :b], mode="clip")
        check = n and not (guard and (cum + (b + 2) <= thr_lane).all())
        i = 0
        while i < b:
            t = t0 + i
            w = 0 if wait else min(window, b - i)
            if w > 1 and check and not (guard and (cum + (w + 2) <= thr_lane).all()):
                # the widest segment the guard allows, if any
                w = min(w, int((thr_lane - cum).min()) - 3) if guard else 0
                if w > 1 and not (cum + (w + 2) <= thr_lane).all():
                    w = 0
            if w > 1:
                values = Fb[i:i + w] - penalties(Ub[:, i:i + w], lam[:, None])  # (w, R, K)
                cand = values.argmax(axis=2, out=out_candidates[t:t + w])
                L = w
                if K > 1:
                    top = np.partition(values, K - 2, axis=2)
                    gap = (top[:, :, K - 1] - top[:, :, K - 2]).min(axis=1)
                    certified = gap[1:] > margins[1:w]
                    if not certified.all():
                        L = 1 + int(certified.argmin())
                window = min(2 * window, _BLOCK) if L == w else 2 * L
                if L < min(w, 4):
                    wait, backoff = backoff, min(2 * backoff, 512)
                else:
                    backoff = 8
                acts = cand[:L] if all_open else np.where(is_open, cand[:L], void)
                picks = (row_base[i:i + L] + acts)[:, None, :]  # (L, 1, R)
                played = steps.take(step_base + picks)  # (L, M, R)
                for k in range(L):
                    lam = out_duals[t + k + 1]
                    np.add(out_duals[t + k], played[k], out=lam)
                    np.maximum(0.0, lam, out=lam)
                if n:
                    H.take(cons_base + picks, out=acc[1:L + 1])
                    np.add.accumulate(acc[:L + 1], axis=0, out=acc[:L + 1])
                    cum[...] = acc[L]
                i += L
                continue
            stop = min(i + max(wait, 1), b)
            wait -= min(wait, stop - i)
            for i in range(i, stop):
                t = t0 + i
                values = Fb[i] - penalties(Ub[:, i], lam)
                candidate = values.argmax(axis=1, out=out_candidates[t])
                if check and not (cum <= thr_lane).all():
                    near = is_open & ~(cum <= thr_fast).all(axis=0)
                    for r in np.flatnonzero(near):
                        if r not in exact:
                            # an open lane has played its candidates so far
                            flat = index[:t, r] * K + out_candidates[:t, r]
                            exact[r] = [exact_sum(h[flat]) for h in H]
                        if any(c > thr for c, thr in zip(exact[r], thresholds[r])):
                            is_open[r] = False
                            closed_at[r] = t
                            thr_lane[:, r] = np.inf
                            all_open = False
                            del exact[r]  # nothing reads a closed lane's totals
                action = candidate if all_open else np.where(is_open, candidate, void)
                np.add(row_base[i], action, out=pick)
                np.add(lam, steps.take(pick, axis=1, out=step), out=step)
                lam = np.maximum(0.0, step, out=out_duals[t + 1])
                if n:
                    np.add(cum, H.take(pick, axis=1, out=col), out=cum)
                    if exact:
                        by_lane = col.T.tolist()
                        for r, totals in exact.items():
                            for j, h in enumerate(by_lane[r]):
                                if h:
                                    totals[j] += exact_value(h)
            i = stop

    return out_candidates.T, closed_at, out_duals.transpose(2, 0, 1)


def _constraint_major(stacks):
    """The (S, M, K) ``stacks`` joined on S into one C-contiguous (M, S, K)
    table, so each constraint's rows are one (S, K) table.  (concatenate
    would keep the transposed inputs' layout.)"""
    _, M, K = stacks[0].shape
    out = np.empty((M, sum(map(len, stacks)), K))
    return np.concatenate([s.transpose(1, 0, 2) for s in stacks], axis=1, out=out)


def run(instance: Instance, config: OgdConfig) -> Trajectory:
    """Execute the full horizon from lambda_1 = 0: the one-lane case of
    :func:`run_lanes`, so it validates the instance first and aborts before
    round 1 on any issue."""
    return next(run_lanes([instance], config))


def lane_key(instance: Instance) -> tuple:
    """What the lanes of one :func:`run_lanes` call must share, the shapes
    of the round loop: the horizon, the action set and (m, n).  Each lane
    keeps its own budget."""
    return (instance.horizon, instance.actions, instance.num_general,
            instance.num_resources)


def run_lanes(instances: list[Instance], config: OgdConfig) -> Iterator[Trajectory]:
    """``run(instance, config)`` for each of ``instances``, played in
    lockstep as one lane each.

    Each distinct instance validates itself, in order, and the first
    invalid one raises before any round is played; so does any lane whose
    :func:`lane_key` differs from the first lane's.  Each lane plays under
    its own instance's budget.  The lanes read one table, the row stacks of
    the instances, so no lane's T-round stacks are built.  The batch keeps only what the
    loop computes (8 + 8M bytes per lane-round), and returns the lanes'
    Trajectories lazily, in order, so a caller can handle one at a time;
    each looks its played rounds up in its own instance.
    """
    distinct = list({id(inst): inst for inst in instances}.values())
    for inst in distinct:
        inst.validate().raise_if_invalid()
    first = instances[0]
    want = lane_key(first)
    for r, inst in enumerate(instances):
        if lane_key(inst) != want:
            raise ValidationError(
                f"lane {r} differs from lane 0 in its horizon, action set or (m, n); "
                "lanes must share them"
            )
    start = np.cumsum([0] + [len(inst.rows[0]) for inst in distinct]).tolist()
    offset = dict(zip(map(id, distinct), start))
    table = (np.concatenate([i.rows[0] for i in distinct]),
             _constraint_major([i.unified_rows for i in distinct]),
             _constraint_major([i.rows[2] for i in distinct]))
    index = np.stack([offset[id(inst)] + inst.index for inst in instances], axis=1)
    beta = np.stack([inst.budget.per_round_budget for inst in instances], axis=1)
    candidates, closed_at, duals = _play(table, index, beta, first.actions.void_index, config.eta)
    return (Trajectory(inst, candidates[r], closed_at[r], duals[r], config.eta, config.delta)
            for r, inst in enumerate(instances))
