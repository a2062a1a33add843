"""Test helpers that build instances and models from per-round input lists,
and read an instance or a run back round by round."""

import numpy as np

from ora_bob import traceio
from ora_bob.core import Instance, StochasticModel


def stacks(rounds):
    """The (F, G, H) row stacks of ``(f, g, h)`` rounds of one shape: f is
    (K,), g is (m, K) and h is (n, K)."""
    return tuple(np.array(part, dtype=np.float64) for part in zip(*rounds))


def instance_of(actions, budget, rounds):
    """The instance playing ``rounds`` in order, one row per round."""
    return Instance(actions, budget, stacks(rounds), np.arange(len(rounds)))


def model_of(actions, budget, support, probs):
    """The model drawing support round s with probability ``probs[s]``."""
    return StochasticModel(actions, budget, stacks(support), probs)


def _per_round(instance, rows):
    """The read-only (T, ...) stack whose round t is row ``index[t]`` of the
    (S, ...) ``rows``."""
    stack = rows[instance.index]
    stack.setflags(write=False)
    return stack


def rewards_stack(instance):
    """(T, K) rewards."""
    return _per_round(instance, instance.rows[0])


def general_stack(instance):
    """(T, m, K) general costs."""
    return _per_round(instance, instance.rows[1])


def consumption_stack(instance):
    """(T, n, K) consumptions."""
    return _per_round(instance, instance.rows[2])


def unified_stack(instance):
    """(T, M, K) unified matrices."""
    return _per_round(instance, instance.unified_rows)


#: The per-round stacks by name.
STACKS = {f.__name__: f for f in (rewards_stack, general_stack, consumption_stack, unified_stack)}


def unified_rows(general, consumption, beta):
    """(U, M, K) unified matrices: the (U, m, K) costs over the (U, n, K)
    consumptions shifted down by the (n,) beta."""
    return np.concatenate([general, consumption - beta[None, :, None]], axis=1)


def trace_columns(trajectory):
    """The per-round trace columns of ``trajectory``, in file order: the
    blocks of :func:`ora_bob.traceio.trace_column_blocks` joined."""
    blocks = list(traceio.trace_column_blocks(trajectory))
    return {name: np.concatenate([cols[name] for cols in blocks]) for name in blocks[0]}
