"""The dual penalty term of the instantaneous Lagrangian.

A round's Lagrangian values f_t(x) - <lambda_t, g~_t(x)> over all actions are
``rewards - penalties(unified, duals)``.  :func:`penalties` accumulates its
inner products in constraint-index order with no reassociation, so
evaluating the same (input, dual) pair twice, one round or a whole stack of
lanes at a time, is bit-identical on a platform; the dominance audit relies
on that exact equality.  The allocator's argmax over these values breaks
ties toward the lowest action index, which keeps traces reproducible.
"""

from __future__ import annotations

import numpy as np


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
