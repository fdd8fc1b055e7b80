"""Nelder-Mead simplex minimization on plain Python floats.

The refinement and extremal-search objectives are cheap scalar functions
of two to twenty-two variables, so array machinery costs more than the
arithmetic.  This module takes the same steps as scipy 1.17's
``minimize(method="Nelder-Mead")`` with ``maxiter`` set and ``maxfev``
unset: the same initial simplex, bound handling, coefficients, operation
order and stop test, so every float agrees.  The one deliberate difference
is the vertex sort, which is stable with NaN last; scipy's ``argsort`` may
order ties by whichever sort numpy picks for the host CPU.

At these sizes an iteration's bookkeeping costs about as much as an
objective call, so it is done once where it can be: the coefficient pairs
once per run, the centroid paired with the worst vertex and the bounds once
per iteration, each trial point computed and clipped in one pass, and the
value half of the stop test on the worst value alone.
"""

from __future__ import annotations

import math
from bisect import insort
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
    # False before True puts NaN last; NaN keys compare equal to each other
    f = pair[0]
    return (f != f, f)


def nelder_mead(
    func,
    x0,
    *,
    maxiter: int,
    xatol: float,
    fatol: float,
    bounds=None,
) -> SimplexResult:
    """Minimize func from x0; bounds is a sequence of (lower, upper) pairs.

    func receives each vertex as a tuple of floats and returns a float; a
    NaN value sorts last and makes ``fun`` NaN.  At most ``maxiter - 1``
    simplex iterations run, and the run stops early once every vertex is
    within fatol of the best in value and within xatol of it in each
    coordinate.  The coefficients are scipy's ``adaptive`` ones (Gao and
    Han, 2012), which in two dimensions equal the standard 1, 2, 1/2, 1/2.
    """
    n = len(x0)
    dim = float(n)
    rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    # (a, b) of each trial point a * xbar - b * worst; the inside contraction
    # is (1 - psi) * xbar + psi * worst, as negating an operand is exact
    reflect, expand = (1 + rho, rho), (1 + rho * chi, rho * chi)
    outside, inside = (1 + psi * rho, psi * rho), (1 - psi, -psi)

    # no bounds clip nothing: no float is below -inf or above inf
    if bounds is None:
        bounds = [(-math.inf, math.inf)] * n
    lower = [lo for lo, _ in bounds]
    upper = [hi for _, hi in bounds]
    if any(lo > hi for lo, hi in zip(lower, upper)):
        raise ValueError("a lower bound is greater than its upper bound")

    def clip(x):
        # NaN passes through, as in numpy's clip
        return tuple([
            lo if v < lo else hi if v > hi else v
            for v, lo, hi in zip(x, lower, upper)
        ])

    def toward(mwb, ab):
        # clip(a * xbar - b * worst), from rows (xbar_i, worst_i, lower_i, upper_i)
        a, b = ab
        return tuple([
            lo if (v := a * m - b * w) < lo else hi if v > hi else v
            for m, w, lo, hi in mwb
        ])

    x0 = clip([float(v) for v in x0])
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(tuple(y))
    # a vertex pushed past an upper bound is reflected back inside, so
    # clipping cannot collapse the simplex onto the bound
    sim = [clip([2 * hi - v if v > hi else v for v, hi in zip(x, upper)]) for x in sim]

    verts = sorted([(func(x), x) for x in sim], key=_sort_key)
    nfev = n + 1
    iterations = 1
    while iterations < maxiter:
        fbest, best = verts[0]
        # values are sorted with NaN last and rounding is monotone, so every
        # value is within fatol of the best exactly when the worst one is
        if abs(fbest - verts[-1][0]) <= fatol and all(
            abs(v - b) <= xatol for _, x in verts[1:] for v, b in zip(x, best)
        ):
            break

        fworst, worst = verts.pop()
        xbar = [reduce(add, col) / n for col in zip(*[x for _, x in verts])]
        mwb = list(zip(xbar, worst, lower, upper))
        xr = toward(mwb, reflect)
        fxr = func(xr)
        nfev += 1
        new = None
        if fxr < fbest:
            xe = toward(mwb, expand)
            fxe = func(xe)
            nfev += 1
            new = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < verts[-1][0]:
            new = (fxr, xr)
        elif fxr < fworst:
            xc = toward(mwb, outside)
            fxc = func(xc)
            nfev += 1
            if fxc <= fxr:
                new = (fxc, xc)
        else:
            xcc = toward(mwb, inside)
            fxcc = func(xcc)
            nfev += 1
            if fxcc < fworst:
                new = (fxcc, xcc)
        if new is not None:
            # the other vertices stay sorted: insert as a stable sort would
            insort(verts, new, key=_sort_key)
        else:
            # shrink toward the best vertex
            verts.append((fworst, worst))
            for j in range(1, n + 1):
                x = clip([b + sigma * (v - b) for v, b in zip(verts[j][1], best)])
                verts[j] = (func(x), x)
            nfev += n
            verts.sort(key=_sort_key)
        iterations += 1

    # sorted with NaN last, so the last value is NaN exactly when any is
    fun = verts[-1][0] if math.isnan(verts[-1][0]) else verts[0][0]
    return SimplexResult(verts[0][1], fun, nfev, iterations)
