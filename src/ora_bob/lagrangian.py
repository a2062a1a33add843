"""The dual penalty term of the instantaneous Lagrangian.

A round's Lagrangian values f_t(x) - <lambda_t, g~_t(x)> over all actions are
``rewards - penalties(unified, duals)``.  :func:`penalties` forms the M
products lambda_i * g~_i(x) in one multiply and sums them with one
``np.add.accumulate`` over the constraint axis, which adds strictly in
constraint-index order with no reassociation: each output is
(...(lambda_1*g~_1 + lambda_2*g~_2) + ...) + lambda_M*g~_M.  So evaluating
the same (input, dual) pair twice, one round or a whole stack of lanes at a
time, is bit-identical on a platform; the dominance audit relies on that
exact equality.  The sum starts from the first product rather than from
0.0, so where every product is zero and the first is -0.0 the result is
-0.0; that compares equal to 0.0, so no argmax or value comparison can
tell the two apart.  The allocator's argmax over these values breaks ties
toward the lowest action index, which keeps traces reproducible.
"""

from __future__ import annotations

import numpy as np


def penalties(unified: np.ndarray, dual_values: np.ndarray) -> np.ndarray:
    """<lambda, g~(x)> for every action x, accumulated in index order.

    ``unified`` is the (M, K) unified constraint matrix, or any (M, ...)
    stack of them, and ``dual_values`` (M, ...) matches its leading axes
    (``dual_values[i]`` broadcasts against ``unified[i]``); returns
    ``unified.shape[1:]``, all zeros when M = 0.  Each output element is the
    running sum lambda_1*g~_1 + lambda_2*g~_2 + ... in constraint order.
    """
    if not len(unified):
        return np.zeros(unified.shape[1:])
    dual_values = np.asarray(dual_values)
    extra = (1,) * (unified.ndim - dual_values.ndim)
    products = dual_values.reshape(dual_values.shape + extra) * unified
    return np.add.accumulate(products, axis=0)[-1]
