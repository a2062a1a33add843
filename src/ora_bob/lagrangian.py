"""Instantaneous Lagrangian evaluation and exact best response.

Every Lagrangian value comes from :func:`penalties`, whose inner products
are accumulated in constraint-index order with no reassociation, so
evaluating the same (input, dual) pair twice, one round or a whole stack at
a time, is bit-identical on a platform; the dominance audit relies on that
exact equality.  Ties in the best response break toward the lowest action
index, which keeps traces reproducible.
"""

from __future__ import annotations

import numpy as np

from .core import DualVector, InputTuple, UnifiedConstraints, ValidationError


def penalties(unified: np.ndarray, dual_values: np.ndarray) -> np.ndarray:
    """<lambda, g~(x)> for every action x, accumulated in index order.

    ``unified`` is the (M, K) unified constraint matrix, or any (M, ...)
    stack of them, and ``dual_values`` (M, ...) matches its leading axes
    (``dual_values[i]`` broadcasts against ``unified[i]``); returns
    ``unified.shape[1:]``.  Each output element is the running sum
    0 + lambda_1*g~_1 + ... in constraint order.
    """
    dual_values = np.asarray(dual_values)
    extra = (1,) * (unified.ndim - dual_values.ndim)
    out = np.zeros(unified.shape[1:])
    for product in dual_values.reshape(dual_values.shape + extra) * unified:
        out += product
    return out


def lagrangian_value(
    inp: InputTuple, unified: UnifiedConstraints, action: int, dual: DualVector
) -> float:
    """f_t(x) - <lambda, g~_t(x)> for a single action."""
    if not 0 <= action < inp.num_actions:
        raise ValidationError(f"action {action} outside [0, {inp.num_actions})")
    if dual.num_constraints != unified.num_constraints:
        raise ValidationError(
            f"dual has {dual.num_constraints} components, "
            f"unified matrix has {unified.num_constraints} rows"
        )
    return float(inp.rewards[action] - penalties(unified.matrix, dual.values)[action])


def best_response(
    inp: InputTuple, unified: UnifiedConstraints, dual: DualVector
) -> tuple[int, float]:
    """The Lagrangian argmax over all actions and its value.

    Exact enumeration over the K actions, O(K*M) per call; K is treated as a
    free parameter.  Ties break toward the lowest index (np.argmax returns
    the first maximizer).
    """
    if dual.num_constraints != unified.num_constraints:
        raise ValidationError(
            f"dual has {dual.num_constraints} components, "
            f"unified matrix has {unified.num_constraints} rows"
        )
    values = inp.rewards - penalties(unified.matrix, dual.values)
    idx = int(np.argmax(values))
    return idx, float(values[idx])
