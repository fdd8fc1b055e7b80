import cmath
import math
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from smale_lab import simplex
from smale_lab.cstar import CStarElement, _coordinate_terms
from smale_lab.errors import DomainError, PreconditionError
from smale_lab.polycore import (
    COINCIDENCE_TOL,
    Poly,
    derivative,
    evaluate,
    from_coeffs,
    require_finite,
)
from smale_lab.rng import Stream
from smale_lab.search import SearchConfig, search_extremal_ds0, search_extremal_s0
from smale_lab.verify import XC

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def convolve_oracle(roots):
    """Independent expansion of prod (z - r): naive index-sum convolution.

    Deliberately written differently from the library (explicit double
    loop over term indices) so the two can cross-check each other.
    """
    coeffs = [1.0 + 0.0j]
    for r in roots:
        factor = [-r, 1.0 + 0.0j]
        out = [0.0 + 0.0j] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    return coeffs


def horner_oracle(coeffs, z):
    """Plain power-sum evaluation, independent of the library's Horner."""
    return sum(c * z ** i for i, c in enumerate(coeffs))


def random_roots(stream: Stream, degree: int, radius: float = 4.0, min_sep: float = 1e-3):
    """Seeded well-separated root sets for roundtrip tests."""
    while True:
        roots = [stream.complex_in_disk(radius) for _ in range(degree)]
        ok = True
        for i in range(degree):
            for j in range(i + 1, degree):
                if abs(roots[i] - roots[j]) < min_sep:
                    ok = False
        if ok:
            return roots


def gaussian_int(stream: Stream, lo: int = -3, hi: int = 3) -> complex:
    """A Gaussian integer with both parts in [lo, hi]: moduli and distances
    of these tie often, across rows and coordinates."""
    return complex(*(math.floor(stream.uniform_in(lo, hi + 1)) for _ in range(2)))


def outcome(fn, *args):
    """fn(*args), or the type of the PreconditionError it raises."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return type(exc)


def match_multisets(found, expected, tol):
    """Greedy closest-pair matching; returns the worst pairing distance."""
    pool = list(expected)
    worst = 0.0
    for f in found:
        best_i = min(range(len(pool)), key=lambda i: abs(pool[i] - f))
        worst = max(worst, abs(pool[best_i] - f))
        pool.pop(best_i)
    assert not pool
    return worst


def polar(r, theta):
    return r * cmath.exp(1j * theta)


def kth_derivative(p: Poly, k: int) -> Poly:
    """k-th derivative; k above the degree yields the zero polynomial."""
    if k < 0:
        raise DomainError(f"derivative order must be >= 0, got {k}")
    if k == 0:
        return p
    if k > p.degree:
        return Poly((0.0 + 0.0j,))
    coeffs = tuple(
        p.coeffs[i + k] * math.perm(i + k, k) for i in range(p.degree - k + 1)
    )
    return Poly(coeffs)


def higher_order_oracle(p: Poly, z: complex, w: complex, k: int) -> float:
    """(|P^(k)(z)| / k!) |P(z) - P(w)|^(k-1) / |P'(z)|^k, the quantity of the
    higher-order mean value theorem, by direct evaluation."""
    kth = abs(evaluate(kth_derivative(p, k), z)) / math.factorial(k)
    diff = abs(evaluate(p, z) - evaluate(p, w))
    return kth * diff ** (k - 1) / abs(evaluate(derivative(p), z)) ** k


def renormalize_oracle(p: Poly, z0: complex) -> Poly:
    """Q(h) = (P(z0 + h) - P(z0)) / P'(z0) for a P built from roots: Q(0) = 0,
    Q'(0) = 1, and Q's ratios at 0 are P's at z0."""
    c = convolve_oracle([r - z0 for r in p.roots])
    return from_coeffs([0j] + [a / c[1] for a in c[1:]])


def scale_conjugate(p: Poly, lam: complex) -> Poly:
    """P_lam(z) = P(lam * z) / lam; preserves normalization for lam != 0."""
    lam = require_finite(lam, "scale factor")
    if lam == 0:
        raise DomainError("scale factor must be nonzero")
    coeffs = tuple(c * lam ** (i - 1) for i, c in enumerate(p.coeffs))
    return Poly(coeffs)


def sum_of_products_derivative(roots, z: complex) -> complex:
    """Derivative of prod (z - r_i) via the sum with one factor removed,
    summed right to left over prefix products.  With telescoped_difference
    this is the bit-for-bit oracle of cstar._coordinate_terms."""
    n = len(roots)
    factors = [z - r for r in roots]
    prefix = [1.0 + 0.0j] * (n + 1)
    for i, f in enumerate(factors):
        prefix[i + 1] = prefix[i] * f
    suffix = 1.0 + 0.0j
    acc = 0.0 + 0.0j
    for j in range(n - 1, -1, -1):
        acc += prefix[j] * suffix
        suffix *= factors[j]
    return acc


def telescoped_difference(roots, zt: complex, wt: complex) -> complex:
    """prod(zt - a_i) - prod(wt - a_i) as (zt - wt) * sum_j prod_{i<j}(zt - a_i)
    * prod_{i>j}(wt - a_i), summed left to right, with each w rebuilding the
    z-side prefix products."""
    n = len(roots)
    zf = [zt - r for r in roots]
    wf = [wt - r for r in roots]
    suffix = [1.0 + 0.0j] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] * wf[j]
    acc = 0.0 + 0.0j
    prefix = 1.0 + 0.0j
    for j in range(n):
        acc += prefix * suffix[j + 1]
        prefix *= zf[j]
    return acc * (zt - wt)


# Exact re-checks of the proven orbit verdicts.  Floats convert to Fraction
# exactly; every square root and m-th root is bounded on the side that makes
# the check harder to pass, on a grid of 2^-_ROOT_BITS.
_ROOT_BITS = 128


def _abs_down(a):
    scaled = math.floor(a.abs2() * 4 ** _ROOT_BITS)
    return Fraction(math.isqrt(scaled), 2 ** _ROOT_BITS)


def _abs_up(a):
    scaled = math.ceil(a.abs2() * 4 ** _ROOT_BITS)
    return Fraction(math.isqrt(scaled) + 1, 2 ** _ROOT_BITS)


def _iroot(n, m):
    """floor(n ** (1/m)) for integers n >= 0, m >= 1 (Newton from above)."""
    x = 1 << -(-n.bit_length() // m)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def _root_up(y, m):
    """A rational >= y ** (1/m) for a positive Fraction y."""
    scaled = math.ceil(y * 2 ** (_ROOT_BITS * m))
    return Fraction(_iroot(scaled, m) + 1, 2 ** _ROOT_BITS)


def assert_in_petal(coeffs, z):
    """z lies in a proven Leau-Fatou petal of z + sum_{j>=2} coeffs[j] z^j.

    Re-derives R = Re w, r, C(r), eta and tau of ``smale_lab.dynamics`` in
    Fraction arithmetic, with r rounded up, |b| down and every |a_j| up.
    """
    if z == 0:
        return
    a = [XC.of(complex(c)) for c in coeffs]
    m = next(j - 1 for j in range(2, len(a)) if a[j].abs2() != 0)
    b = a[m + 1]
    zm = XC.of(complex(z))
    for _ in range(m - 1):
        zm = zm * XC.of(complex(z))
    d = XC(Fraction(m), Fraction(0)) * b * zm
    R = -d.re / d.abs2()  # Re(-1/d)
    assert R > 0, f"Re w = {float(R)} is not positive"
    abs_b = _abs_down(b)
    r = _root_up(1 / (m * abs_b * R), m)
    c = sum(_abs_up(a[j]) * r ** (j - m - 2) for j in range(m + 2, len(a)))
    eta = r * c / abs_b
    tau = (1 + eta) / (m * R)
    assert tau < 1, f"tau = {float(tau)}"
    bound = eta + R * ((1 - tau) ** -m - 1 - m * tau)
    assert bound <= Fraction(1, 2), f"petal bound {float(bound)} > 1/2"


def assert_escapes(coeffs, z):
    """|z| >= 1 and |a_n| |z| - sum_{j<n} |a_j| >= 2, so |P(z)| >= 2 |z| and
    every later iterate grows by that factor again."""
    a = [XC.of(complex(c)) for c in coeffs]
    mod = _abs_down(XC.of(complex(z)))
    assert mod >= 1, f"|z| = {float(mod)} < 1"
    margin = _abs_down(a[-1]) * mod - sum(_abs_up(c) for c in a[:-1])
    assert margin >= 2, f"escape margin {float(margin)} < 2"


class _Caught(Exception):
    pass


def search_objective(maximize):
    """The objective that search_extremal_s0 (maximize) or _ds0 hands the
    simplex, caught at the simplex call."""
    caught = []

    def catch(func, x0, **kwargs):
        caught.append(func)
        raise _Caught

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "nelder_mead", catch)
        with pytest.raises(_Caught):
            (search_extremal_s0 if maximize else search_extremal_ds0)(2, SearchConfig(restarts=1))
    return caught[0]


def set_cpus(monkeypatch, n: int) -> None:
    """Make fanout.fan_out size itself to n workers, as on an n-CPU host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


# The degree-2 C^k identities of acceptance criteria 1 and 2, computed
# through the checker's per-coordinate pass.


def _degree2(a: CStarElement, b: CStarElement, z: CStarElement):
    """(c, P'(z), per-coordinate P(z) - P(c)) for P = (z - a)(z - b) with
    critical midpoint c."""
    a._check_dim(b)
    a._check_dim(z)
    c = CStarElement(tuple((x + y) / 2.0 for x, y in zip(a.coords, b.coords)))
    terms = [
        _coordinate_terms((at, bt), zt, (ct,))
        for at, bt, zt, ct in zip(a.coords, b.coords, z.coords, c.coords)
    ]
    dval = CStarElement(tuple(dt for dt, _ in terms))
    if dval.norm() <= COINCIDENCE_TOL * max(1.0, z.norm(), c.norm()):
        raise PreconditionError("z is the critical midpoint of (a, b)")
    return c, dval, [diff for _, (diff,) in terms]


def degree2_identity_residual(
    a: CStarElement, b: CStarElement, z: CStarElement
) -> float:
    """Defect of the degree-2 equality, scaled by the input size.

    For P = (z - a)(z - b) with midpoint c, both the direct and the dual
    squared inequalities are equalities:
    |P(z)_t - P(c)_t|^2 = (1/4) |z_t - c_t|^2 |P'(z)_t|^2 per coordinate.
    Returns the largest coordinate defect of that identity divided by
    max(1, ||z||, ||a||, ||b||)^4, so the value is meaningful uniformly
    over input scales.
    """
    c, dval, diffs = _degree2(a, b, z)
    scale = max(1.0, z.norm(), a.norm(), b.norm()) ** 4
    worst = 0.0
    for t in range(a.dim):
        lhs = abs(diffs[t]) ** 2
        rhs = 0.25 * abs(z.coords[t] - c.coords[t]) ** 2 * abs(dval.coords[t]) ** 2
        defect = abs(lhs - rhs) / scale
        if defect > worst:
            worst = defect
    return worst


def degree2_higher_order(a: CStarElement, b: CStarElement, z: CStarElement) -> float:
    """(||P''(z)|| / 2!) ||P(z) - P(c)|| / ||P'(z)||^2 for degree 2."""
    _, dval, diffs = _degree2(a, b, z)
    num = max(abs(d) for d in diffs)
    # P'' is the constant element 2, so ||P''(z)|| / 2! = 1
    return num / dval.norm() ** 2
