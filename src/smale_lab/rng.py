"""Deterministic counter-based random streams (splitmix64).

Every stochastic component of the package draws from a Stream, so a
(seed, label, index) triple fully determines each variate.  Streams derive
hierarchically: trial i of experiment e uses ``root.derive(e).derive(i)``,
which keeps results independent of evaluation order and lets trials be
re-run in isolation.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


class Stream:
    """Counter-based generator: output i is a pure function of (key, i)."""

    __slots__ = ("key", "index")

    def __init__(self, seed: int, label: int = 0):
        self.key = _mix((seed & _MASK) ^ _mix(label & _MASK))
        self.index = 0

    @classmethod
    def from_key(cls, key: int) -> "Stream":
        """Rebuild a stream from a previously captured key."""
        child = cls.__new__(cls)
        child.key = key & _MASK
        child.index = 0
        return child

    def derive(self, label: int) -> "Stream":
        """Child stream whose outputs are decorrelated from the parent's."""
        return Stream.from_key(_mix(self.key ^ _mix((label + 0x632BE59BD9B4E019) & _MASK)))

    def next_u64(self) -> int:
        self.index += 1
        return _mix((self.key + self.index * _GAMMA) & _MASK)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def complex_in_disk(self, radius: float) -> complex:
        """Uniform draw from the closed disk of the given radius."""
        r = radius * math.sqrt(self.uniform())
        phi = 2.0 * math.pi * self.uniform()
        return complex(r * math.cos(phi), r * math.sin(phi))
