"""Dense two-phase primal simplex for the desk-scale LPs in this package.

Maximizes c.x subject to A_ub x <= b_ub, x >= 0 and convexity rows (each
equality row sums its own block of consecutive variables to its b_eq entry)
on a dense tableau with an explicit reduced-cost row.  Pivoting uses
Dantzig's rule (most negative reduced cost) and switches permanently to
Bland's smallest-index rule after a stretch of pivots without objective
improvement, which rules out cycling; the ratio test breaks ties toward the
smallest basic variable index.  Reduced costs are compared against an
absolute tolerance, TOL.

This is deliberately a small, auditable solver for the LP relaxation of
``oracles.opt_lp_relax``, whose tableau that module caps at
``LP_TABLEAU_GUARD_MIB`` (256 MiB): about 2,600 rows and 13,000 columns at
K = 4.  A pivot updates only the rows with a nonzero entry in the pivot
column, which on that sparse LP is a small share of them, a block of rows
at a time through a work buffer of two blocks allocated once per solve
(``PIVOT_BLOCK_BYTES`` each, so it stays in cache).  A solve holds the
tableau, that buffer and the inequality block: ``convexity_width`` writes
the equality rows straight into the tableau, so no dense equality block is
built beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9
PHASE1_FEASIBILITY_TOL = 1e-7
#: Bytes in each of the two blocks of a solve's pivot work buffer.  At
#: 128 KiB the pair stays in L2 cache on large LPs; smaller blocks cost
#: more numpy calls per pivot than they save on narrow tableaux.
PIVOT_BLOCK_BYTES = 1 << 17


class SimplexError(RuntimeError):
    def __init__(self, message: str, iterations: int = 0):
        self.iterations = iterations
        super().__init__(message)


@dataclass(frozen=True)
class SimplexResult:
    value: float
    x: np.ndarray
    iterations: int


def _pivot(tab, red, basis, r, q, work):
    tab[r] /= tab[r, q]
    col = tab[:, q].copy()
    col[r] = 0.0
    # A row with a zero in the pivot column would only have zeros subtracted,
    # so skipping it leaves every value bit for bit as a full update would.
    rows = np.flatnonzero(col)
    # The rows go through the two (block, width) halves of work a block at
    # a time, so a pivot holds no row copies beyond those two blocks; each
    # row gets the same two roundings as in one whole update.
    taken, products = work
    block = taken.shape[0]
    factors, pivot_row = col[rows, None], tab[r]
    for start in range(0, rows.size, block):
        part = rows[start : start + block]
        t, p = taken[: part.size], products[: part.size]
        np.take(tab, part, axis=0, out=t, mode="clip")  # mode "raise" copies via a temporary
        # filled, then scaled in place: a broadcast multiply into p would
        # make numpy buffer both inputs
        p[...] = pivot_row
        p *= factors[start : start + block]
        tab[part] = np.subtract(t, p, out=t)
    red -= red[q] * tab[r, :-1]
    red[q] = 0.0
    basis[r] = q
    # keep the rhs usable by the ratio test in the presence of roundoff
    rhs = tab[:, -1]
    np.clip(rhs, 0.0, None, out=rhs)


def _iterate(tab, basis, cost, barred, max_iterations, iterations_used, work):
    rows = tab.shape[0]
    red = cost - cost[basis] @ tab[:, :-1]
    stall_limit = 3 * rows + 20
    stall = 0
    bland = False
    best_obj = float(cost[basis] @ tab[:, -1])
    it = iterations_used

    while True:
        eligible = red < -TOL
        eligible[barred] = False
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            return it
        it += 1
        if it > max_iterations:
            raise SimplexError(
                f"simplex did not converge within {max_iterations} iterations", it
            )
        if bland:
            q = int(idx[0])
        else:
            q = int(idx[np.argmin(red[idx])])
        col = tab[:, q]
        pos = np.nonzero(col > TOL)[0]
        if pos.size == 0:
            raise SimplexError("linear program is unbounded", it)
        ratios = tab[pos, -1] / col[pos]
        rmin = ratios.min()
        ties = pos[ratios <= rmin]
        r = int(ties[np.argmin(basis[ties])])
        _pivot(tab, red, basis, r, q, work)
        obj = float(cost[basis] @ tab[:, -1])
        if obj < best_obj - TOL * max(1.0, abs(best_obj)):
            best_obj = obj
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True


def solve_lp(c, A_ub=None, b_ub=None, b_eq=None, convexity_width=None) -> SimplexResult:
    """Maximize c.x s.t. A_ub x <= b_ub, x >= 0 and len(b_eq) convexity
    rows, within max(5000, 50 * (rows + tableau columns)) pivots.

    Convexity row r of width w = ``convexity_width`` has ones in columns
    r*w to (r+1)*w - 1 and zeros elsewhere, and equals b_eq[r]; so c has
    len(b_eq) * w entries.  Pass both b_eq and w, or neither."""
    c = np.asarray(c, dtype=np.float64).reshape(-1)
    n = c.shape[0]
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=np.float64).reshape(-1, n)
    b_ub = np.asarray([] if b_ub is None else b_ub, dtype=np.float64).reshape(-1)
    if A_ub.shape[0] != b_ub.shape[0]:
        raise ValueError(f"A_ub: {A_ub.shape[0]} rows but {b_ub.shape[0]} rhs entries")
    b_eq = np.asarray([] if b_eq is None else b_eq, dtype=np.float64).reshape(-1)
    if (b_eq.size or convexity_width is not None) and b_eq.size * (convexity_width or 0) != n:
        raise ValueError(
            f"convexity_width: {b_eq.size} rows of {convexity_width} columns but {n} variables"
        )
    mu, me = A_ub.shape[0], b_eq.shape[0]
    rows = mu + me

    # Row order: inequality rows first, then equalities.  Rows with negative
    # rhs are flipped so every rhs is nonnegative; a flipped inequality row
    # gets a surplus (-1) slack and, like every equality row, an artificial.
    b = np.concatenate([b_ub, b_eq])
    flip = b < 0.0
    b[flip] *= -1.0

    slack_sign = np.where(flip[:mu], -1.0, 1.0)
    needs_art = np.ones(rows, dtype=bool)
    needs_art[:mu] = flip[:mu]
    art_rows = np.nonzero(needs_art)[0]
    n_art = art_rows.size

    width = n + mu + n_art + 1
    tab = np.zeros((rows, width))
    tab[:mu, :n] = A_ub
    if me:
        tab[mu + np.arange(n) // convexity_width, np.arange(n)] = 1.0
    tab[flip, :n] *= -1.0
    tab[np.arange(mu), n + np.arange(mu)] = slack_sign
    tab[art_rows, n + mu + np.arange(n_art)] = 1.0
    tab[:, -1] = b

    basis = np.empty(rows, dtype=np.int64)
    basis[:mu] = n + np.arange(mu)
    basis[art_rows] = n + mu + np.arange(n_art)

    max_iterations = max(5000, 50 * (rows + width - 1))

    # the two blocks of rows through which _pivot updates the tableau
    work = np.empty((2, max(1, PIVOT_BLOCK_BYTES // (8 * width)), width))
    return _solve(tab, basis, c, n, mu, n_art, max_iterations, work)


def _solve(tab, basis, c, n, mu, n_art, max_iterations, work) -> SimplexResult:
    """Phases 1 and 2 on the initial tableau built by solve_lp."""
    rows = tab.shape[0]
    total_vars = n + mu + n_art
    art_cols = np.arange(n + mu, total_vars)
    iterations = 0
    if n_art:
        cost1 = np.zeros(total_vars)
        cost1[art_cols] = 1.0
        iterations = _iterate(tab, basis, cost1, np.zeros(total_vars, dtype=bool),
                              max_iterations, iterations, work)
        infeas = float(cost1[basis] @ tab[:, -1])
        if infeas > PHASE1_FEASIBILITY_TOL:
            raise SimplexError(
                f"linear program is infeasible (phase-1 objective {infeas:.3e})",
                iterations,
            )
        # Drive surviving artificials out of the basis where possible; rows
        # that cannot pivot are redundant and keep a barred artificial at 0.
        barred = np.zeros(total_vars, dtype=bool)
        barred[art_cols] = True
        red_dummy = np.zeros(total_vars)
        for r in range(rows):
            if basis[r] >= n + mu:
                candidates = np.nonzero(np.abs(tab[r, : n + mu]) > TOL)[0]
                if candidates.size:
                    _pivot(tab, red_dummy, basis, r, int(candidates[0]), work)
    else:
        barred = np.zeros(total_vars, dtype=bool)

    cost2 = np.zeros(total_vars)
    cost2[:n] = -c  # maximize c.x == minimize -c.x
    iterations = _iterate(tab, basis, cost2, barred, max_iterations, iterations, work)

    x_full = np.zeros(total_vars)
    x_full[basis] = tab[:, -1]
    x = x_full[:n]
    return SimplexResult(value=float(c @ x), x=x, iterations=iterations)
