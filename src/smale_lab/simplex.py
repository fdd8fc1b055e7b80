"""Nelder-Mead simplex minimization on plain Python floats.

The refinement and extremal-search objectives are cheap scalar functions
of two to twenty-two variables, so array machinery costs more than the
arithmetic.  This module takes the same steps as scipy 1.17's
``minimize(method="Nelder-Mead")`` with ``maxiter`` set and ``maxfev``
unset: the same initial simplex, bound handling, coefficients, operation
order and stop test, so every float agrees.  The one deliberate difference
is the vertex sort, which is stable with NaN last; scipy's ``argsort`` may
order ties by whichever sort numpy picks for the host CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

_NONZDELT = 0.05
_ZDELT = 0.00025


@dataclass(frozen=True)
class SimplexResult:
    x: tuple[float, ...]
    fun: float
    nfev: int
    nit: int


def _sort_key(pair):
    f = pair[0]
    return (1, 0.0) if math.isnan(f) else (0, f)


def nelder_mead(
    func,
    x0,
    *,
    maxiter: int,
    xatol: float,
    fatol: float,
    adaptive: bool = False,
    bounds=None,
) -> SimplexResult:
    """Minimize func from x0; bounds is a sequence of (lower, upper) pairs.

    func receives each vertex as a tuple of floats and returns a float; a
    NaN value sorts last and makes ``fun`` NaN.  At most ``maxiter - 1``
    simplex iterations run, and the run stops early once every vertex is
    within xatol of the best in each coordinate and within fatol of it in
    value.
    """
    n = len(x0)
    if adaptive:
        dim = float(n)
        rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5

    x0 = [float(v) for v in x0]
    if bounds is None:
        def clip(x):
            return x
    else:
        lower = [lo for lo, _ in bounds]
        upper = [hi for _, hi in bounds]
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise ValueError("a lower bound is greater than its upper bound")

        def clip(x):
            # NaN passes through, as in numpy's clip
            return tuple(
                lo if v < lo else hi if v > hi else v
                for v, lo, hi in zip(x, lower, upper)
            )

        x0 = clip(x0)

    sim = [tuple(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(tuple(y))
    if bounds is not None:
        # a vertex pushed past an upper bound is reflected back inside, so
        # clipping cannot collapse the simplex onto the bound
        sim = [
            clip(tuple(2 * hi - v if v > hi else v for v, hi in zip(x, upper)))
            for x in sim
        ]

    nfev = 0

    def evaluate(x):
        nonlocal nfev
        nfev += 1
        return func(x)

    verts = sorted(((evaluate(x), x) for x in sim), key=_sort_key)
    iterations = 1
    while iterations < maxiter:
        fbest, best = verts[0]
        if all(
            abs(v - b) <= xatol for _, x in verts[1:] for v, b in zip(x, best)
        ) and all(abs(fbest - f) <= fatol for f, _ in verts[1:]):
            break

        fworst, worst = verts[-1]
        xbar = [reduce(add, col) / n for col in zip(*(x for _, x in verts[:-1]))]

        def toward(a, b):
            return clip(tuple(a * m - b * w for m, w in zip(xbar, worst)))

        xr = toward(1 + rho, rho)
        fxr = evaluate(xr)
        if fxr < fbest:
            xe = toward(1 + rho * chi, rho * chi)
            fxe = evaluate(xe)
            verts[-1] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < verts[-2][0]:
            verts[-1] = (fxr, xr)
        else:
            shrink = False
            if fxr < fworst:
                xc = toward(1 + psi * rho, psi * rho)
                fxc = evaluate(xc)
                if fxc <= fxr:
                    verts[-1] = (fxc, xc)
                else:
                    shrink = True
            else:
                # (1 - psi) * xbar + psi * worst: negating an operand is exact
                xcc = toward(1 - psi, -psi)
                fxcc = evaluate(xcc)
                if fxcc < fworst:
                    verts[-1] = (fxcc, xcc)
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    x = clip(
                        tuple(b + sigma * (v - b) for v, b in zip(verts[j][1], best))
                    )
                    verts[j] = (evaluate(x), x)
        iterations += 1
        verts.sort(key=_sort_key)

    # sorted with NaN last, so the last value is NaN exactly when any is
    fun = verts[-1][0] if math.isnan(verts[-1][0]) else verts[0][0]
    return SimplexResult(verts[0][1], fun, nfev, iterations)
