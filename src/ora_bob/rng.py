"""Counter-based pseudorandom numbers for reproducible instance generation.

Every random draw in the package is addressed by a ``(seed, stream, index)``
triple and computed as a pure function of it, so draws never depend on call
order and per-round generation is embarrassingly parallel.  The generator is
SplitMix64 in counter mode: a 64-bit state ``base + (index+1) * GOLDEN`` fed
through the Stafford "mix13" finalizer, where ``base`` is itself a double-mixed
hash of (seed, stream).  All arithmetic is modulo 2**64, which makes the output
identical across platforms.

Stream conventions used by the generators in :mod:`ora_bob.environments`:

* stream 0 -- instance-level draws (budget vectors, support sampling),
* stream t (t >= 1) -- the draws belonging to round t.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
STREAM_SALT = 0xD1B54A32D192ED03

#: Name recorded in trace headers so runs document their randomness source.
ALGORITHM = "splitmix64-mix13-counter"


def mix64(z: int) -> int:
    """SplitMix64 finalizer (Stafford mix13) on a Python integer."""
    z &= MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return z


def stream_base(seed: int, stream: int) -> int:
    """64-bit base state for a (seed, stream) pair; any integer seed,
    numpy integers included, counts modulo 2**64."""
    a = mix64((int(seed) + GOLDEN) & MASK64)
    b = mix64((stream * GOLDEN + STREAM_SALT) & MASK64)
    return mix64(a ^ b)


def derive_seed(seed: int, stream: int) -> int:
    """A fresh 64-bit seed deterministically derived from (seed, stream)."""
    return stream_base(seed, stream)


def words(seed: int, stream, indices) -> np.ndarray:
    """uint64 words addressed by (seed, stream, index).

    ``stream`` and ``indices`` broadcast against each other, so a whole
    (rounds x draws-per-round) block can be produced in one call.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    st = np.asarray(stream, dtype=np.uint64)
    if st.ndim == 0:
        base = np.uint64(stream_base(seed, int(st)))
    else:
        a = np.uint64(mix64((int(seed) + GOLDEN) & MASK64))
        b = _mix64_array(st * np.uint64(GOLDEN) + np.uint64(STREAM_SALT))
        base = _mix64_array(a ^ b)
    state = base + (idx + np.uint64(1)) * np.uint64(GOLDEN)
    return _mix64_array(state)


def uniforms(seed: int, stream, indices) -> np.ndarray:
    """Uniform float64 draws in [0, 1) with 53 random bits each."""
    return (words(seed, stream, indices) >> np.uint64(11)) * 2.0**-53
