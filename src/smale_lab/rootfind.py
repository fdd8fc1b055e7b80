"""Simultaneous root finding for polynomials in coefficient or root form.

One Aberth-Ehrlich loop serves both forms; only its Newton correction
differs.  Degree <= 2 needs no iteration in either form, nor do the
critical points of four or three distinct roots: closed forms give those
points.  A coefficient-form polynomial of degree 1 or 2 gets its roots
from the linear or the cancellation-free quadratic formula; from degree 3
on it gets p/p' from one Horner pass and its iteration starts on a circle
of the Cauchy-bound radius.  Quadratic and iterated roots alike
get a short Newton polish.  The critical points of a root-form polynomial
P = prod (x - a_i) need no coefficients (the secular-equation form of Bini
and Robol, J. Comput. Appl. Math. 272, 2014): with the equal roots grouped
as b_i of multiplicity m_i, each b_i with m_i > 1 is a critical point of
multiplicity m_i - 1, and the others are the zeros of f = sum m_i/(x - b_i).
Two distinct roots leave one of them, in closed form.  Three or four
roots, all distinct, leave the zeros of a quadratic or a cubic P', which
the quadratic formula or Cardano's gives, with the signs that avoid
cancellation (cf. J. Blinn, IEEE CG&A 26-27, 2006-07), in the frame of the
roots' mean rho (also the mean of all critical points); each point then
takes one Newton step.  Otherwise, and whenever a closed-form point is not
finite or fails the residual rule, Aberth runs on the polynomial
prod (x - b_i) * f from a circle centred at rho, of radius max |a_i - rho|,
which by Gauss-Lucas reaches every critical point.  Each form clusters the
iterates into multiplicities at one tolerance and checks every point by its
own residual rule.  No linear algebra dependency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, RootFindError
from .polycore import (
    POLY_RESIDUAL_TOL,
    Poly,
    cauchy_root_bound,
    derivative,
    evaluate,
    root_residual_bounds,
)

# Phase offset (radians) of the initial guesses; irrational so the start
# configuration never aligns with a symmetry axis of the root set.
_INIT_PHASE = 0.37

_LEAD_MIN = 1e-30

_POLISH_STEPS = 5  # Newton steps per root, each kept only if it lowers |p|

_STEP_TOL = 1e-14  # a sweep whose largest relative step is this small ends the iteration
_MAX_ITERS = 200  # Aberth sweeps before the residual check decides

# iterates closer than this times max(1, largest |iterate|) are one root; the
# roots' own scale, since the Cauchy bound of a derivative of degree 30 with
# roots in |z| <= 2 is about 10^6 times larger
_CLUSTER_REL = 1e-7


@dataclass(frozen=True)
class RootSet:
    """Distinct roots with multiplicities, in lexicographic (re, im) order."""

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    residuals: tuple[float, ...]

    def expanded(self) -> tuple[complex, ...]:
        """Roots repeated according to multiplicity."""
        out: list[complex] = []
        for r, m in zip(self.roots, self.multiplicities):
            out.extend([r] * m)
        return tuple(out)


@lru_cache(maxsize=64)
def _unit_circle(n: int) -> tuple[complex, ...]:
    """n start directions, evenly spaced from the phase _INIT_PHASE."""
    two_pi = 2.0 * 3.141592653589793
    return tuple(cmath.exp(1j * (two_pi * j / n + _INIT_PHASE)) for j in range(n))


def _horner_pair(coeffs, z):
    """(p(z), p'(z)) in one descending pass."""
    acc = 0.0 + 0.0j
    dacc = 0.0 + 0.0j
    for c in reversed(coeffs):
        dacc = dacc * z + acc
        acc = acc * z + c
    return acc, dacc


def _horner_correction(coeffs):
    """Newton correction p/p' of the coefficient form, for _aberth_sweeps."""

    def correction(z):
        val, dval = _horner_pair(coeffs, z)
        if val == 0:
            return 0.0
        if dval == 0:
            return None
        return val / dval

    return correction


def _secular_correction(roots, multiple):
    """Newton correction Q/Q' for _aberth_sweeps, where Q = prod (x - b_i) * f
    over the distinct roots b_i and f = P'/P = sum 1/(x - a_i) over the roots
    a_i, repeats included; multiple holds (b, m - 1) for each root b of
    multiplicity m > 1.  With g = sum 1/(x - a_i)^2 and s = sum 1/(x - b_i) =
    f - sum (m - 1)/(x - b), Q'/Q = s - g/f, so Q/Q' = f/(s f - g): for
    distinct roots, P'/P'' = f/(f^2 - g).  One pass over the roots."""

    def correction(x):
        f = g = 0j
        try:
            for a in roots:
                u = 1.0 / (x - a)
                f += u
                g += u * u
            s = f
            for b, k in multiple:
                s -= k / (x - b)
        except ZeroDivisionError:  # x is a root: a pole of f
            return None
        if f == 0:
            return 0.0
        den = s * f - g
        if den == 0:
            return None
        return f / den

    return correction


def _aberth_sweeps(correction, guesses, radius):
    """Aberth iteration from the guesses; correction(z) is the Newton step
    of the polynomial whose roots the guesses approach, 0 at a root and
    None at a point where the step is undefined (the iterate is nudged)."""
    zs = list(guesses)
    n = len(zs)
    for _ in range(_MAX_ITERS):
        max_step = 0.0
        for j in range(n):
            z = zs[j]
            newton = correction(z)
            if not newton:
                if newton is None:
                    # sitting on a stationary point: nudge deterministically
                    zs[j] = z + radius * 1e-9 * cmath.exp(1j * (j + 1))
                    max_step = max(max_step, 1.0)
                continue
            repulse = 0.0 + 0.0j
            for other in zs[:j] + zs[j + 1:]:
                diff = z - other
                if diff == 0:
                    diff = complex(radius * 1e-14, 0.0)
                repulse += 1.0 / diff
            denom = 1.0 - newton * repulse
            step = newton if denom == 0 else newton / denom
            zs[j] = new = z - step
            rel = abs(step) / (1.0 + abs(new))
            if rel > max_step:
                max_step = rel
        if max_step <= _STEP_TOL:
            break
    return zs


def _quadratic_roots(b, c):
    """The roots of x^2 + b x + c by the cancellation-free quadratic
    formula: d = sqrt(b^2 - 4c) with the sign that makes Re(conj(b) d) >= 0,
    so b and d do not cancel in q = -(b + d)/2, and the other root is c/q
    (both 0 when q = 0).  Products, not powers, so an overflow gives inf,
    never OverflowError."""
    d = cmath.sqrt(b * b - 4.0 * c)
    if b.real * d.real + b.imag * d.imag < 0:
        d = -d
    q = -(b + d) / 2.0
    return [q, c / q] if q else [q, q]


_CUBE_ROOTS_OF_UNITY = (1.0, complex(-0.5, math.sqrt(0.75)), complex(-0.5, -math.sqrt(0.75)))


def _cubic_roots(a, b, c):
    """The roots of t^3 + a t^2 + b t + c by Cardano's formula.  With t =
    s - a/3 the cubic is s^3 + p s + q; s = u - p/(3u) for each cube root u
    of -(q/2 + r), r = sqrt(q^2/4 + p^3/27) taken with the sign that makes
    Re(conj(q) r) >= 0, so q/2 and r do not cancel.  u is the principal
    cube root times each cube root of unity; u = 0 forces q = p = 0, a
    triple root at -a/3.  An overflow gives non-finite roots, never
    OverflowError."""
    shift = a / 3.0
    p = b - a * shift
    q = c - shift * (b - 2.0 * shift * shift)
    half = q / 2.0
    r = cmath.sqrt(half * half + p * p * p / 27.0)
    if half.real * r.real + half.imag * r.imag < 0:
        r = -r
    cube = -(half + r)
    if not cmath.isfinite(cube):  # complex ** raises OverflowError on inf
        return [cube] * 3
    u = cube ** (1.0 / 3.0)
    if not u:
        return [-shift] * 3
    out = []
    for w in _CUBE_ROOTS_OF_UNITY:
        uw = u * w
        out.append(uw - p / (3.0 * uw) - shift)
    return out


def _polish(coeffs, z):
    val, dval = _horner_pair(coeffs, z)
    best = abs(val)
    for _ in range(_POLISH_STEPS):
        if dval == 0 or best == 0:
            break
        cand = z - val / dval
        cval, cdval = _horner_pair(coeffs, cand)
        if abs(cval) < best:
            z, val, dval, best = cand, cval, cdval, abs(cval)
        else:
            break
    return z


def _cluster(points, tol):
    """Single-linkage clustering at the given distance tolerance."""
    n = len(points)
    close = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(points[i] - points[j]) <= tol
    ]
    if not close:
        return [[z] for z in points]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in close:
        ra, rb = find(i), find(j)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    return list(groups.values())


def _cluster_means(zs):
    """The iterates as (cluster mean, cluster size) pairs."""
    clusters = _cluster(zs, _CLUSTER_REL * max(1.0, max(abs(z) for z in zs)))
    return [(sum(members) / len(members), len(members)) for members in clusters]


def _require_finite(zs, radius, residual):
    """Raise RootFindError, with residual(z) at every iterate attached, when
    the iterates left the finite numbers; ``radius`` is the iteration's
    start circle, None for the closed-form quadratic."""
    if not all(cmath.isfinite(z) for z in zs):
        if radius is None:
            message = "closed-form quadratic roots diverged: a root overflows"
        else:
            message = f"root iteration diverged from the start circle of radius {radius:.3e}"
        raise RootFindError(
            message,
            roots=zs,
            residuals=[residual(z) for z in zs],
        )


def _not_converged(r, res, bound, roots, residuals):
    return RootFindError(
        f"root iteration did not converge within {_MAX_ITERS} sweeps "
        f"(residual {res:.3e} > {bound:.3e} at |r| = {abs(r):.3e})",
        roots=roots,
        residuals=residuals,
    )


def _by_position(items):
    """items sorted lexicographically by (re, im) of their first entry."""
    return sorted(items, key=lambda item: (item[0].real, item[0].imag))


def find_roots(p: Poly) -> RootSet:
    """All roots of p, clustered into multiplicities.

    Polished iterates closer than 1e-7 * max(1, largest |iterate|) merge
    into one root.
    Raises RootFindError (with the best iterates and residuals attached)
    if the iteration diverges, or stalls at points that are not
    acceptable roots by the residual criterion.
    """
    n = p.degree
    if n < 1:
        raise DomainError("find_roots needs degree >= 1")
    lead = p.coeffs[-1]
    if abs(lead) <= _LEAD_MIN:
        raise DomainError(f"leading coefficient too small: |a_n| = {abs(lead):.3e}")

    monic = tuple(c / lead for c in p.coeffs)

    if n == 1:
        root = -monic[0]
        return RootSet((root,), (1,), (abs(evaluate(p, root)),))

    if n == 2:
        zs, radius = _quadratic_roots(monic[1], monic[0]), None
    else:
        radius = cauchy_root_bound(p)
        guesses = [radius * u for u in _unit_circle(n)]
        zs = _aberth_sweeps(_horner_correction(monic), guesses, radius)
    zs = [_polish(p.coeffs, z) for z in zs]
    _require_finite(zs, radius, lambda z: abs(_horner_pair(p.coeffs, z)[0]))

    reps = _by_position(_cluster_means(zs))
    roots = tuple(r for r, _ in reps)
    mults = tuple(m for _, m in reps)
    residuals = tuple(abs(evaluate(p, r)) for r in roots)

    for r, res, bound in zip(roots, residuals, root_residual_bounds(p, roots)):
        if res > bound:
            raise _not_converged(r, res, bound, roots, residuals)
    return RootSet(roots, mults, residuals)


def _secular_residual(roots, x):
    """(|f(x)|, sum 1/|x - a_i|, |P'(x)|) for P = prod (x - a_i) and
    f = P'/P = sum 1/(x - a_i), in one pass over the roots, repeats
    included; (inf, 0, inf) when x is a root."""
    f = 0j
    scale = 0.0
    prod = 1.0 + 0j
    try:
        for a in roots:
            d = x - a
            u = 1.0 / d
            f += u
            scale += abs(u)
            prod *= d
    except ZeroDivisionError:
        return math.inf, 0.0, math.inf
    return abs(f), scale, abs(prod * f)


def _closed_form_points(roots, rho):
    """The critical points of P = prod (x - a_i) over 3 or 4 distinct
    roots, in the frame t = x - rho: with E_k the elementary symmetric sums
    of the centred roots, P'/3 = t^2 - (2/3) E_1 t + E_2/3 goes to the
    quadratic formula and P'/4 = t^3 - (3/4) E_1 t^2 + (1/2) E_2 t - E_3/4
    to Cardano's."""
    if len(roots) == 3:
        a, b, c = [r - rho for r in roots]
        s = a + b
        ts = _quadratic_roots(-2.0 * (s + c) / 3.0, (a * b + s * c) / 3.0)
    else:
        a, b, c, d = [r - rho for r in roots]
        s, u, ab, cd = a + b, c + d, a * b, c * d
        ts = _cubic_roots(-0.75 * (s + u), 0.5 * (s * u + ab + cd), -0.25 * (ab * u + cd * s))
    return [rho + t for t in ts]


def _newton_once(correction, xs):
    """Each x after one Newton step of the secular correction, kept only if
    it is shorter than half the distance to the nearest other x: at a
    (near-)multiple point the step is rounding noise that leaves x's basin."""
    out = []
    for i, x in enumerate(xs):
        step = correction(x)
        if step and 2.0 * abs(step) < min([abs(x - y) for j, y in enumerate(xs) if j != i]):
            x -= step
        out.append(x)
    return out


def _checked(roots, found):
    """(x, m, |f(x)|, bound, |P'(x)|) per (x, m) in found, where the
    backward-error test is |f(x)| <= bound = POLY_RESIDUAL_TOL * sum 1/|x - a_i|."""
    out = []
    for x, m in found:
        fabs, scale, res = _secular_residual(roots, x)
        out.append((x, m, fabs, POLY_RESIDUAL_TOL * scale, res))
    return out


def critical_points_of_roots(roots) -> RootSet:
    """Critical points of P = prod (x - a) over a tuple of finite complex
    roots (a Poly's stored roots or a C^k coordinate column), counted with
    multiplicity (len(roots) - 1 in total), with no coefficients formed.

    A root b of multiplicity m is a critical point of multiplicity m - 1
    (residual 0).  The others come in closed form for two distinct roots,
    or for three or four roots with no repeats, else from the secular
    iteration, which also takes over when a closed-form point is not finite
    or fails the backward-error test |f(x)| <= POLY_RESIDUAL_TOL *
    sum 1/|x - a_i| with f = P'/P.  Every point is accepted on that test;
    its residual is |P'(x)|.  Raises RootFindError when the iteration
    diverges or a point fails the test.
    """
    n = len(roots)
    if n < 2:
        raise DomainError("critical points need degree >= 2")
    distinct = tuple(dict.fromkeys(roots))
    d = len(distinct)
    if d == n:
        mults, multiple = (1,) * n, ()
    else:
        mults = tuple(roots.count(b) for b in distinct)
        multiple = tuple((b, m - 1) for b, m in zip(distinct, mults) if m > 1)

    if d == 1:
        checked = []
    elif d == 2:  # the zero of m_1/(x - b_1) + m_2/(x - b_2)
        checked = _checked(roots, [((mults[1] * distinct[0] + mults[0] * distinct[1]) / n, 1)])
    else:
        rho = sum(roots) / n
        correction = _secular_correction(roots, multiple)
        checked = None
        if n == d <= 4:
            zs = _newton_once(correction, _closed_form_points(roots, rho))
            if all(cmath.isfinite(z) for z in zs):
                checked = _checked(roots, _cluster_means(zs))
                if not all(c[2] <= c[3] for c in checked):
                    checked = None
        if checked is None:
            radius = max([abs(a - rho) for a in roots])
            guesses = [rho + radius * u for u in _unit_circle(d - 1)]
            zs = _aberth_sweeps(correction, guesses, radius)
            _require_finite(zs, radius, lambda z: _secular_residual(roots, z)[2])
            checked = _checked(roots, _cluster_means(zs))

    for x, _, fabs, bound, _ in checked:
        if not fabs <= bound:
            raise _not_converged(x, fabs, bound, [c[0] for c in checked], [c[4] for c in checked])
    points = [(b, k, 0.0) for b, k in multiple]
    points += [(x, m, res) for x, m, _, _, res in checked]
    return RootSet(*zip(*_by_position(points)))


def critical_points(p: Poly) -> RootSet:
    """Roots of p', counted with multiplicity (degree(p) - 1 in total): from
    p's stored roots when it has them, else from the coefficients of p'."""
    if p.degree < 2:
        raise DomainError("critical points need degree >= 2")
    if p.roots is not None:
        return critical_points_of_roots(p.roots)
    return find_roots(derivative(p))


# no package code calls this: perfbench/worker.py reads its cache_info() and the tracer wraps it
@lru_cache(maxsize=1024)
def cached_critical_points(p: Poly) -> RootSet:
    return critical_points(p)
