import numpy as np
import pytest
from hypothesis import given, strategies as st

from ora_bob.core import (
    ActionSet,
    BudgetSpec,
    DualVector,
    InputTuple,
    ValidationError,
    unify_constraints,
)
from ora_bob.environments import constant_instance, make_example1_instance
from ora_bob.lagrangian import best_response, lagrangian_value, penalties

LAMBDA_2020 = DualVector([20.0, 20.0])


@pytest.fixture(scope="module")
def example1():
    return make_example1_instance(0.1, 0.2, horizon=20)


def test_budget_case_void_value_is_four(example1):
    inst = constant_instance(example1.budget_only)
    r, u = inst.rounds[0], inst.unified(1)
    # f=0, h=[0,0], beta=[0.1,0.1] so the void unified column is [-0.1,-0.1]
    assert lagrangian_value(r, u, 0, LAMBDA_2020) == pytest.approx(4.0, abs=1e-12)


def test_budget_case_overspender_value(example1):
    inst = constant_instance(example1.budget_only)
    r, u = inst.rounds[0], inst.unified(1)
    # 3 - 2*eps/rho = -1 at rho=0.1, eps=0.2
    assert lagrangian_value(r, u, 1, LAMBDA_2020) == pytest.approx(-1.0, abs=1e-12)


def test_general_case_values(example1):
    inst = constant_instance(example1.general)
    r, u = inst.rounds[0], inst.unified(1)
    assert lagrangian_value(r, u, 0, LAMBDA_2020) == pytest.approx(0.0, abs=1e-12)
    assert lagrangian_value(r, u, 1, LAMBDA_2020) == pytest.approx(5.0, abs=1e-12)
    # 5 + 1/rho = 15
    assert lagrangian_value(r, u, 2, LAMBDA_2020) == pytest.approx(15.0, abs=1e-12)


def test_zero_dual_gives_raw_reward(example1):
    inst = constant_instance(example1.general)
    r, u = inst.rounds[0], inst.unified(1)
    zero = DualVector.zeros(2)
    for a in range(3):
        assert lagrangian_value(r, u, a, zero) == r.rewards[a]


def test_best_response_prefers_cross_compensation(example1):
    inst = constant_instance(example1.general)
    action, value = best_response(inst.rounds[0], inst.unified(1), LAMBDA_2020)
    assert action == 2
    assert value == pytest.approx(15.0, abs=1e-12)


def test_best_response_tie_breaks_lowest_index():
    r = InputTuple([0.0, 0.7, 0.7], np.zeros((0, 3)), np.zeros((0, 3)))
    u = unify_constraints(r, BudgetSpec(1, []))
    action, value = best_response(r, u, DualVector.zeros(0))
    assert (action, value) == (1, 0.7)


def test_best_response_single_action():
    r = InputTuple([0.0], np.zeros((0, 1)), np.zeros((0, 1)))
    u = unify_constraints(r, BudgetSpec(1, []))
    assert best_response(r, u, DualVector.zeros(0)) == (0, 0.0)


def test_action_index_validated(example1):
    inst = constant_instance(example1.general)
    with pytest.raises(ValidationError):
        lagrangian_value(inst.rounds[0], inst.unified(1), 3, LAMBDA_2020)


def test_dual_dimension_validated(example1):
    inst = constant_instance(example1.general)
    with pytest.raises(ValidationError):
        best_response(inst.rounds[0], inst.unified(1), DualVector([1.0]))


def _random_problem(seed, K, m, n):
    from ora_bob import rng

    u = rng.uniforms(seed, 2, np.arange(K * (1 + m + n) + m + n))
    f = u[:K].copy()
    g = (2.0 * u[K : K + m * K] - 1.0).reshape(m, K)
    h = u[K + m * K : K + m * K + n * K].reshape(n, K).copy()
    f[0] = 0.0
    if m:
        g[:, 0] = 0.0
    if n:
        h[:, 0] = 0.0
    beta = 0.1 + 0.9 * u[K * (1 + m + n) + m :]
    r = InputTuple(f, g, h)
    budget = BudgetSpec(max(1, int(np.ceil(1.0 / beta.min()))) if n else 1, beta)
    dual = DualVector(3.0 * u[K * (1 + m + n) : K * (1 + m + n) + m + n])
    return r, unify_constraints(r, budget), dual


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dominance_is_exact(K, m, n, seed):
    r, u, dual = _random_problem(seed, K, m, n)
    action, value = best_response(r, u, dual)
    for x in range(K):
        assert value >= lagrangian_value(r, u, x, dual)
    # the scalar path agrees bit-for-bit with the vectorized path
    assert value == lagrangian_value(r, u, action, dual)


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.001, max_value=2.0),
)
def test_monotone_penalty(K, m, seed, delta_bump):
    r, u, dual = _random_problem(seed, K, m, 0)
    i = seed % m
    bumped_values = dual.values.copy()
    bumped_values[i] += delta_bump
    bumped = DualVector(bumped_values)
    for x in range(K):
        before = lagrangian_value(r, u, x, dual)
        after = lagrangian_value(r, u, x, bumped)
        expected_change = -delta_bump * u.matrix[i, x]
        assert after - before == pytest.approx(expected_change, abs=1e-12)


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_argmax_invariant_under_reward_shift(K, m, seed, shift):
    r, u, dual = _random_problem(seed, K, m, 0)
    shifted = InputTuple(r.rewards + shift, r.general_costs, r.consumptions)
    a1, _ = best_response(r, u, dual)
    a2, _ = best_response(shifted, u, dual)
    assert a1 == a2


def test_penalties_accumulate_in_index_order():
    u = np.array([[1.0, 0.5], [0.25, -0.5], [2.0, 1.0]])
    dual = np.array([0.1, 0.2, 0.3])
    out = penalties(u, dual)
    expected0 = ((0.0 + 0.1 * 1.0) + 0.2 * 0.25) + 0.3 * 2.0
    expected1 = ((0.0 + 0.1 * 0.5) + 0.2 * -0.5) + 0.3 * 1.0
    assert out[0] == expected0 and out[1] == expected1


def test_stacked_penalties_bitwise_equal_per_round_calls():
    rng = np.random.default_rng(7)
    M, T, K = 4, 50, 5
    unified = rng.uniform(-1.0, 1.0, size=(T, M, K))
    duals = rng.exponential(size=(T, M))
    stacked = penalties(unified.transpose(1, 0, 2), duals.T[:, :, None])
    per_round = np.stack([penalties(unified[t], duals[t]) for t in range(T)])
    assert stacked.shape == (T, K)
    assert np.array_equal(stacked, per_round)
