"""Test helpers that build instances and models from per-round input lists."""

import numpy as np

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
