import numpy as np
import pytest
from hypothesis import given, strategies as st

from ora_bob.allocator import run
from ora_bob.core import ActionSet, BudgetSpec, InputTuple, Instance, unified_rows
from ora_bob.dual_ogd import OgdConfig
from ora_bob.environments import constant_instance, make_example1_instance
from ora_bob.lagrangian import penalties

LAMBDA_2020 = np.array([20.0, 20.0])


@pytest.fixture(scope="module")
def example1():
    return make_example1_instance(0.1, 0.2, horizon=20)


def first_round_values(model, dual):
    """f_1(x) - <lambda, g~_1(x)> for every action x of a constant instance."""
    inst = constant_instance(model)
    return inst.rewards_stack[0] - penalties(inst.unified_stack[0], dual)


def test_budget_case_void_value_is_four(example1):
    values = first_round_values(example1.budget_only, LAMBDA_2020)
    # f=0, h=[0,0], beta=[0.1,0.1] so the void unified column is [-0.1,-0.1]
    assert values[0] == pytest.approx(4.0, abs=1e-12)


def test_budget_case_overspender_value(example1):
    values = first_round_values(example1.budget_only, LAMBDA_2020)
    # 3 - 2*eps/rho = -1 at rho=0.1, eps=0.2
    assert values[1] == pytest.approx(-1.0, abs=1e-12)


def test_general_case_values(example1):
    values = first_round_values(example1.general, LAMBDA_2020)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[1] == pytest.approx(5.0, abs=1e-12)
    # 5 + 1/rho = 15
    assert values[2] == pytest.approx(15.0, abs=1e-12)


def test_zero_dual_gives_raw_reward(example1):
    values = first_round_values(example1.general, np.zeros(2))
    assert np.array_equal(values, example1.general.rows[0][0])


def test_best_response_prefers_cross_compensation(example1):
    values = first_round_values(example1.general, LAMBDA_2020)
    action = int(np.argmax(values))
    assert action == 2
    assert values[action] == pytest.approx(15.0, abs=1e-12)


def one_round_run(rewards):
    """The allocator's single round on rewards with no constraints (lambda_1 = 0)."""
    k = len(rewards)
    r = InputTuple(rewards, np.zeros((0, k)), np.zeros((0, k)))
    return run(Instance(ActionSet(k, 0), BudgetSpec(1, []), (r,)), OgdConfig(0.1, 0.05))


def test_best_response_tie_breaks_lowest_index():
    tr = one_round_run([0.0, 0.7, 0.7])
    assert (int(tr.candidates[0]), int(tr.actions[0]), float(tr.rewards[0])) == (1, 1, 0.7)


def test_best_response_single_action():
    tr = one_round_run([0.0])
    assert (int(tr.candidates[0]), int(tr.actions[0]), float(tr.rewards[0])) == (0, 0, 0.0)


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
    dual = 3.0 * u[K * (1 + m + n) : K * (1 + m + n) + m + n]
    return r, unified_rows(g[None], h[None], beta)[0], dual, beta


def values_at(r, u, dual):
    return r.rewards - penalties(u, dual)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dominance_is_exact(K, m, n, seed):
    # the allocator's candidate at each round is the first maximizer of the
    # Lagrangian at the duals it saw, recomputed for that round alone
    r, _, _, beta = _random_problem(seed, K, m, n)
    inst = Instance(ActionSet(K, 0), BudgetSpec(12, beta), (r,) * 12)
    tr = run(inst, OgdConfig(eta=0.5, delta=0.05))
    for t in range(inst.horizon):
        values = inst.rewards_stack[t] - penalties(inst.unified_stack[t], tr.duals[t])
        action = int(tr.candidates[t])
        assert np.all(values[action] >= values)
        assert action == int(np.argmax(values))


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.001, max_value=2.0),
)
def test_monotone_penalty(K, m, seed, delta_bump):
    r, u, dual, _ = _random_problem(seed, K, m, 0)
    i = seed % m
    bumped = dual.copy()
    bumped[i] += delta_bump
    before, after = values_at(r, u, dual), values_at(r, u, bumped)
    for x in range(K):
        expected_change = -delta_bump * u[i, x]
        assert after[x] - before[x] == pytest.approx(expected_change, abs=1e-12)


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_argmax_invariant_under_reward_shift(K, m, seed, shift):
    r, u, dual, _ = _random_problem(seed, K, m, 0)
    shifted = InputTuple(r.rewards + shift, r.general_costs, r.consumptions)
    assert np.argmax(values_at(r, u, dual)) == np.argmax(values_at(shifted, u, dual))


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
