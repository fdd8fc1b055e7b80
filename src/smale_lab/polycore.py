"""Complex polynomials: representation, evaluation, calculus.

A polynomial is a tuple of coefficients in ascending order (a0 first,
leading coefficient last and nonzero unless the polynomial is the constant
zero).  A Poly built from roots keeps the root multiset alongside the
expanded coefficients, because several downstream quantities are better
conditioned in root form.

All values are Python complex; NaN and infinity are rejected at the type
boundary so no public operation ever propagates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

Scalar = complex

# Residual allowed at a root, relative to its Horner term scale (see
# root_residual_bounds).
POLY_RESIDUAL_TOL = 1e-8

# |P'(z)| below CRITICAL_TOL times the derivative coefficient scale counts
# as critical; |z - w| below COINCIDENCE_TOL times the point scale counts
# as coincident.  Both are relative so behavior is stable under P -> mu*P.
CRITICAL_TOL = 1e-10
COINCIDENCE_TOL = 1e-12


def require_finite(z: complex, what: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{what} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class Poly:
    """Immutable polynomial; hashable so callers may memoize on it."""

    coeffs: tuple[complex, ...]
    roots: tuple[complex, ...] | None = None

    def __post_init__(self):
        if not self.coeffs:
            raise DomainError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        for c in self.coeffs:
            require_finite(c, "coefficient")
        if len(self.coeffs) > 1 and abs(self.coeffs[-1]) == 0.0:
            raise DomainError("leading coefficient must be nonzero")
        if self.roots is not None:
            object.__setattr__(self, "roots", tuple(complex(r) for r in self.roots))
            for r in self.roots:
                require_finite(r, "root")
            if len(self.roots) != self.degree:
                raise DomainError(
                    f"{len(self.roots)} roots stored for degree {self.degree}"
                )
            for r, tol in zip(self.roots, root_residual_bounds(self, self.roots)):
                res = abs(evaluate(self, r))
                if res > tol:
                    raise DomainError(
                        f"stored root {r!r} has residual {res:.3e} > {tol:.3e}"
                    )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def coeff_scale(self) -> float:
        return max(abs(c) for c in self.coeffs)


def root_residual_bounds(p: Poly, roots) -> list[float]:
    """Largest |p(r)| accepted at each stored or computed root r.

    The terms of p grow like |r|^n, so a residual is judged relative to
    that scale (the convention of the critical-point test in smale.py).
    """
    accept = POLY_RESIDUAL_TOL * (1.0 + p.coeff_scale)
    n = p.degree
    return [accept * max(1.0, abs(r)) ** n for r in roots]


def from_coeffs(values) -> Poly:
    """Build a Poly from ascending coefficients, trimming trailing zeros."""
    coeffs = [complex(v) for v in values]
    if not coeffs:
        raise DomainError("empty coefficient list")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return Poly(tuple(coeffs))


def monic_coeffs(roots) -> list[complex]:
    """Ascending coefficients of prod (z - r) over complex roots, unchecked.

    Repeated linear-factor multiplication, which is exact in the sense of
    producing the convolution of the factors; no FFT is needed at the
    degrees this package targets.
    """
    coeffs = [1.0 + 0.0j]
    for r in roots:
        nxt = [0.0 + 0.0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= r * c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def from_roots(roots) -> Poly:
    """Monic polynomial with the given roots (with multiplicity)."""
    roots = tuple(complex(r) for r in roots)
    if not roots:
        raise DomainError("from_roots needs at least one root")
    for r in roots:
        require_finite(r, "root")
    return Poly(tuple(monic_coeffs(roots)), roots)


def evaluate(p: Poly, z: Scalar) -> Scalar:
    """Horner evaluation of p at z (coefficient form)."""
    z = require_finite(z, "evaluation point")
    acc = 0.0 + 0.0j
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def derivative(p: Poly) -> Poly:
    """First derivative; degree drops by exactly one."""
    if p.degree < 1:
        raise DomainError("cannot differentiate a constant polynomial")
    return Poly(tuple(i * c for i, c in enumerate(p.coeffs) if i >= 1))


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


# kept as the tests' bitwise kernel reference; perfbench/tracer.py wraps it
def divided_difference(p: Poly, z: Scalar, w: Scalar) -> Scalar:
    """(p(z) - p(w)) / (z - w), evaluated without the subtraction.

    Uses the algebraic identity sum_i a_i * h_i with h_1 = 1 and
    h_{i+1} = z*h_i + w^i, so the result stays accurate even when z and w
    are close and the naive difference would cancel.  Well-defined for
    z == w too, where it returns p'(z).
    """
    z = require_finite(z, "point z")
    w = require_finite(w, "point w")
    acc = 0.0 + 0.0j
    h = 1.0 + 0.0j
    wp = 1.0 + 0.0j
    for i in range(1, p.degree + 1):
        acc += p.coeffs[i] * h
        wp *= w
        h = z * h + wp
    return acc


def cauchy_root_bound(p: Poly) -> float:
    """Radius 1 + max |a_i / a_n| enclosing every root."""
    if p.degree < 1:
        raise DomainError("root bound needs degree >= 1")
    lead = abs(p.coeffs[-1])
    return 1.0 + max(abs(c) for c in p.coeffs[:-1]) / lead


def poly_to_json(p: Poly) -> dict:
    if p.roots is not None:
        return {"roots": [[r.real, r.imag] for r in p.roots]}
    return {"coeffs": [[c.real, c.imag] for c in p.coeffs]}


def _pair_to_complex(pair, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise DomainError(f"{where} must be a [re, im] pair of numbers")
    return require_finite(complex(pair[0], pair[1]), where)


def poly_from_json(obj) -> Poly:
    """Parse {"coeffs": [[re,im],...]} or {"roots": [[re,im],...]}."""
    if not isinstance(obj, dict):
        raise DomainError("poly must be a JSON object")
    has_coeffs = "coeffs" in obj
    has_roots = "roots" in obj
    if has_coeffs == has_roots:
        raise DomainError('poly needs exactly one of "coeffs" or "roots"')
    key = "coeffs" if has_coeffs else "roots"
    seq = obj[key]
    if not isinstance(seq, list) or not seq:
        raise DomainError(f"poly.{key} must be a non-empty list")
    values = [_pair_to_complex(item, f"poly.{key}[{i}]") for i, item in enumerate(seq)]
    if has_coeffs:
        return from_coeffs(values)
    return from_roots(values)


def is_normalized(p: Poly, tol: float = 1e-12) -> bool:
    """True when p(0) = 0 and p'(0) = 1 within tol."""
    if p.degree < 1:
        return False
    return abs(p.coeffs[0]) <= tol and abs(p.coeffs[1] - 1.0) <= tol


def sum_of_products_derivative(roots, z: Scalar) -> Scalar:
    """Derivative of prod (z - r_i) via the sum with one factor removed.

    Independent of the coefficient-form derivative; the two are
    cross-checked in the test suite.  O(n) using prefix/suffix products.
    The algebra model evaluates P' with it, one coordinate at a time.
    """
    n = len(roots)
    if n == 0:
        raise DomainError("need at least one root")
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
