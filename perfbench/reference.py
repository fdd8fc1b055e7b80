"""Reference kernel that tracks the host's speed during a run.

The benchmark host's speed drifts by tens of percent over minutes (other
tenants share its cores), and the drift slows all single-threaded Python
alike.  ``worker.py`` times this kernel in short slices spread through each
measured run, and ``run.py`` scales the run's times by ``rate / RATE``, so
they read as times on an idle host.

The kernel is fixed pure-Python work shaped like the package's hot paths:
a frozen dataclass built and hashed per polynomial, an lru cache, divided
differences, and min/max over small witness objects.  A plain arithmetic
loop tracked the lookup-heavy ``points`` workload much worse.  The kernel
never changes with the package, so a change to the program moves the
scaled times and leaves the kernel's rate alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# Kernel calls per second on an idle 2-vCPU 2.1 GHz Xeon host, the host the
# benchmark was defined on; it only fixes the scale of the reported times.
RATE = 1200.0


@dataclass(frozen=True)
class _Poly:
    coeffs: tuple

    def __post_init__(self):
        for c in self.coeffs:
            if not math.isfinite(c.real):
                raise ValueError(c)


@dataclass(frozen=True)
class _Witness:
    w: complex
    q: float


@lru_cache(maxsize=64)
def _critical(p: _Poly) -> tuple:
    return tuple(complex(0.1 * j, -0.05 * j) for j in range(len(p.coeffs) - 1))


def _quotient(p: _Poly, z: complex, w: complex) -> float:
    acc, h, wp = 0j, 1 + 0j, 1 + 0j
    for c in p.coeffs[1:]:
        acc += c * h
        wp *= w
        h = z * h + wp
    return abs(acc)


def kernel() -> float:
    """About a millisecond of fixed work on an idle host."""
    acc = 0.0
    for k in range(8):
        p = _Poly(tuple(complex(1 + 0.1 * i, 0.2 * k - 0.03 * i) for i in range(6)))
        for j in range(6):
            z = complex(0.3 * j - 0.7, 0.11 * k + 0.05)
            wits = [_Witness(w, _quotient(p, z, w)) for w in _critical(p)]
            acc += min(wits, key=lambda x: x.q).q + max(wits, key=lambda x: x.q).q
    return acc
