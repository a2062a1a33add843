import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    res = solve_lp([1.0, 1.0], A_ub=[[1.0, -1.0]], b_ub=[0.5], b_eq=[1.0], convexity_width=2)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_distribution_rows_like_the_relaxation():
    # two convexity rows, one coupling row: the structure opt_lp_relax builds
    c = [1.0, 0.0, 0.8, 0.0]
    A_ub = [[1.0, 0.0, 1.0, 0.0]]  # picking both rewarding actions is capped
    res = solve_lp(c, A_ub=A_ub, b_ub=[1.0], b_eq=[1.0, 1.0], convexity_width=2)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.x[:2].sum() == pytest.approx(1.0, abs=1e-9)
    assert res.x[2:].sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"b_eq": [1.0], "convexity_width": 2}, "1 rows of 2 columns but 4 variables"),
        ({"b_eq": [1.0, 1.0]}, "2 rows of None columns but 4 variables"),
        ({"convexity_width": 2}, "0 rows of 2 columns but 4 variables"),
    ],
    ids=["width_mismatch", "b_eq_without_width", "width_without_b_eq"],
)
def test_convexity_width_refuses_a_mismatch(kwargs, message):
    with pytest.raises(ValueError, match=message):
        solve_lp([1.0, 0.0, 0.8, 0.0], **kwargs)


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
        solve_lp([1.0], b_eq=[-1.0], convexity_width=1)


def test_negative_rhs_inequality_flips():
    # x >= 1 encoded as -x <= -1; max -x  ->  -1 at x = 1
    res = solve_lp([-1.0], A_ub=[[-1.0]], b_ub=[-1.0])
    assert res.value == pytest.approx(-1.0, abs=1e-9)


def test_zero_objective_feasible():
    res = solve_lp([0.0, 0.0], b_eq=[1.0], convexity_width=2)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_reports_iterations():
    res = solve_lp([1.0, 2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert res.iterations >= 1


def test_ratio_ties_go_to_the_smallest_basic_variable_index():
    # entering x0, both rows tie at ratio 1: leaving the smaller basic index
    # (row 0's slack) takes 2 pivots; leaving row 1's slack would take 1
    res = solve_lp([2.0, 2.0, 0.0], A_ub=[[2.0, 0.0, 2.0], [1.0, 2.0, 1.0]], b_ub=[2.0, 1.0])
    assert (res.value, res.x.tolist(), res.iterations) == (2.0, [1.0, 0.0, 0.0], 2)


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
        mu, me, w = gen.integers(0, 8), gen.integers(0, 4), gen.integers(2, 9)
        n = me * w if me else gen.integers(2, 20)

        def mat(rows):
            # integer entries half the time, for ties and degenerate vertices
            a = gen.integers(-3, 4, (rows, n)).astype(float) if k % 2 else gen.normal(size=(rows, n))
            a[gen.random((rows, n)) < 0.5] = 0.0
            return a

        # me convexity rows of width w, met by x0 >= 0; the inequality rows
        # are met by x0 or not at random
        x0 = gen.random(n)
        A_ub = np.vstack([mat(mu), np.ones((1, n))])
        b_ub = np.append(A_ub[:mu] @ x0 + gen.normal(size=mu), 10.0)
        b_eq = x0.reshape(me, w).sum(axis=1) if me else None
        yield mat(1)[0], A_ub, b_ub, b_eq, w if me else None


def _outcome(c, A_ub, b_ub, b_eq, width):
    try:
        res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, b_eq=b_eq, convexity_width=width)
    except SimplexError as e:
        return str(e), e.iterations
    return res.value.hex(), (res.x + 0.0).tobytes(), res.iterations


def test_row_skipping_pivot_is_bitwise_the_full_update(monkeypatch):
    lps = list(_sparse_lps(300))
    skipping = [_outcome(*lp) for lp in lps]
    monkeypatch.setattr(simplex, "_pivot", _full_update_pivot)
    assert skipping == [_outcome(*lp) for lp in lps]


def _one_shot_pivot(tab, red, basis, r, q):
    # the rows with a nonzero in the pivot column, updated in one step
    tab[r] /= tab[r, q]
    col = tab[:, q].copy()
    col[r] = 0.0
    rows = np.flatnonzero(col)
    tab[rows] = tab[rows] - col[rows, None] * tab[r]
    red -= red[q] * tab[r, :-1]
    red[q] = 0.0
    basis[r] = q
    rhs = tab[:, -1]
    np.clip(rhs, 0.0, None, out=rhs)


# signed zeros, subnormals and small integers beside arbitrary finite cells
_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309]),
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3),
)
_PIVOTS = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
_NONZERO = st.sampled_from([5e-324, -1e-310, 1.0, -3.0]) | _PIVOTS


@given(st.data())
def test_blocked_pivot_is_bitwise_the_one_shot_update(data):
    """_pivot through work blocks of 1, 2 and 3 rows, and of one as tall as
    the tableau, leaves tab, red and basis bitwise as one update of every
    row with a nonzero in the pivot column, which here outnumber a block."""
    rows, width = data.draw(st.integers(5, 12)), data.draw(st.integers(2, 7))
    q, r = data.draw(st.integers(0, width - 2)), data.draw(st.integers(0, rows - 1))
    tab = np.array(data.draw(st.lists(_CELLS, min_size=rows * width, max_size=rows * width)))
    tab = tab.reshape(rows, width)
    col = data.draw(st.lists(_NONZERO | _CELLS, min_size=rows, max_size=rows))
    tab[:, q] = col
    others = [i for i in range(rows) if i != r]
    for i in data.draw(st.permutations(others))[:4]:
        tab[i, q] = data.draw(_NONZERO)  # more nonzero rows than a block of 3
    tab[r, q] = data.draw(_PIVOTS)
    red = np.array(data.draw(st.lists(_CELLS, min_size=width - 1, max_size=width - 1)))
    basis = np.array(data.draw(st.lists(st.integers(0, width - 2), min_size=rows, max_size=rows)))

    want = tab.copy(), red.copy(), basis.copy()
    _one_shot_pivot(*want, r, q)
    for height in (1, 2, 3, rows + data.draw(st.integers(0, 2))):
        got = tab.copy(), red.copy(), basis.copy()
        simplex._pivot(*got, r, q, np.full((2, height, width), np.nan))
        for a, b in zip(got[:2], want[:2]):
            assert a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes(), height
        assert got[2].tobytes() == want[2].tobytes(), height
