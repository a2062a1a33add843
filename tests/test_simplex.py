import numpy as np
import pytest

from ora_bob import simplex
from ora_bob.simplex import SimplexError, solve_lp


def test_basic_box():
    # max x + 2y s.t. x <= 3, y <= 4  ->  11 at (3, 4)
    res = solve_lp([1.0, 2.0], A_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[3.0, 4.0])
    assert res.value == pytest.approx(11.0, abs=1e-9)
    assert np.allclose(res.x, [3.0, 4.0], atol=1e-9)


def test_shared_capacity():
    # max 3x + 2y s.t. x + y <= 4, x <= 2  ->  10 at (2, 2)
    res = solve_lp([3.0, 2.0], A_ub=[[1.0, 1.0], [1.0, 0.0]], b_ub=[4.0, 2.0])
    assert res.value == pytest.approx(10.0, abs=1e-9)


def test_equality_constraints():
    # max x + y s.t. x + y = 1, x - y <= 0.5  ->  1
    res = solve_lp(
        [1.0, 1.0], A_ub=[[1.0, -1.0]], b_ub=[0.5], A_eq=[[1.0, 1.0]], b_eq=[1.0]
    )
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_distribution_rows_like_the_relaxation():
    # two convexity rows, one coupling row: the structure opt_lp_relax builds
    c = [1.0, 0.0, 0.8, 0.0]
    A_eq = [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]
    b_eq = [1.0, 1.0]
    A_ub = [[1.0, 0.0, 1.0, 0.0]]  # picking both rewarding actions is capped
    b_ub = [1.0]
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_beale_degenerate_cycle_terminates():
    # Beale's classical cycling example (minimization form negated);
    # optimum of the min problem is -1/20 at x = (1/25, 0, 1, 0)
    c = [0.75, -150.0, 0.02, -6.0]
    A_ub = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b_ub = [0.0, 0.0, 1.0]
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
    assert res.value == pytest.approx(0.05, abs=1e-9)
    assert np.all(np.asarray(A_ub) @ res.x <= np.asarray(b_ub) + 1e-9)
    assert np.all(res.x >= -1e-12)


def test_unbounded_detected():
    with pytest.raises(SimplexError, match="unbounded"):
        solve_lp([1.0], A_ub=[[0.0]], b_ub=[1.0])


def test_infeasible_detected():
    # x = -1 is impossible for x >= 0
    with pytest.raises(SimplexError, match="infeasible"):
        solve_lp([1.0], A_eq=[[1.0]], b_eq=[-1.0])


def test_negative_rhs_inequality_flips():
    # x >= 1 encoded as -x <= -1; max -x  ->  -1 at x = 1
    res = solve_lp([-1.0], A_ub=[[-1.0]], b_ub=[-1.0])
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_zero_objective_feasible():
    res = solve_lp([0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_reports_iterations():
    res = solve_lp([1.0, 2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert res.iterations >= 1


def test_iteration_cap_raises_with_count():
    # max c.x s.t. x <= 1 in tableau form: slacks basic, one pivot needed
    tab = np.hstack([np.eye(3), np.eye(3), np.ones((3, 1))])
    cost = np.array([-1.0, -2.0, -3.0, 0.0, 0.0, 0.0])
    with pytest.raises(SimplexError, match="iterations"):
        simplex._iterate(tab, np.arange(3, 6), cost, np.zeros(6, dtype=bool), 0, 0,
                         np.empty((2, 3, 7)))


def _full_update_pivot(tab, red, basis, r, q, work):
    # the textbook pivot: every row is updated, zeros in the pivot column
    # too, with no work buffer
    tab[r] /= tab[r, q]
    col = tab[:, q].copy()
    col[r] = 0.0
    tab -= np.outer(col, tab[r])
    red -= red[q] * tab[r, :-1]
    red[q] = 0.0
    basis[r] = q
    rhs = tab[:, -1]
    np.clip(rhs, 0.0, None, out=rhs)


def _sparse_lps(count):
    gen = np.random.default_rng(7)
    for k in range(count):
        n, mu, me = gen.integers(2, 20), gen.integers(0, 8), gen.integers(0, 4)

        def mat(rows):
            # integer entries half the time, for ties and degenerate vertices
            a = gen.integers(-3, 4, (rows, n)).astype(float) if k % 2 else gen.normal(size=(rows, n))
            a[gen.random((rows, n)) < 0.5] = 0.0
            return a

        A_ub = np.vstack([mat(mu), np.ones((1, n))])
        b_ub = np.append(gen.normal(size=mu), 10.0)
        A_eq = mat(me)
        b_eq = A_eq @ np.abs(gen.normal(size=n))
        yield mat(1)[0], A_ub, b_ub, A_eq, b_eq


def _outcome(c, A_ub, b_ub, A_eq, b_eq):
    try:
        res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    except SimplexError as e:
        return str(e), e.iterations
    return res.value.hex(), (res.x + 0.0).tobytes(), res.iterations


def test_row_skipping_pivot_is_bitwise_the_full_update(monkeypatch):
    lps = list(_sparse_lps(300))
    skipping = [_outcome(*lp) for lp in lps]
    monkeypatch.setattr(simplex, "_pivot", _full_update_pivot)
    assert skipping == [_outcome(*lp) for lp in lps]
