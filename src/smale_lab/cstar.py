"""Finite model of a commutative C*-algebra and its polynomial checks.

The model algebra is C^k with pointwise operations, complex conjugation as
the involution, and the sup norm: the continuous functions on k points.
Every finite-dimensional commutative C*-algebra is of this form, so any
counterexample found here embeds into the general commutative case.

Polynomials over the model are monic products of linear factors with
algebra-element roots.  Along each Gelfand point t the polynomial is the
scalar one whose roots are the roots' coordinate-t column
(``CStarPoly.columns``), and it is only ever held in that root form: no
coefficient polynomial is built.  A point w is critical when the derivative
is the zero element, i.e. vanishes in every coordinate; the critical set is
a Cartesian product of per-coordinate scalar critical points, each
coordinate's found from its column by the secular iteration
(``rootfind.critical_points_of_roots``), and the
quotient extremes over all of it come from per-coordinate tables
(``product_extremes``) without visiting the product.  Each coordinate's
table comes from one pass: the z-side factors z_t - a_i and their prefix
products are formed once, and give both P'(z_t) and the telescoped
difference P(z_t) - P(w_t) for every coordinate critical point w_t.  A
point z counts as critical when ||P'(z)|| is at most
``CStarPoly.critical_threshold``, the one rule the checker and the hunt
sampler share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, PreconditionError
from .polycore import COINCIDENCE_TOL, CRITICAL_TOL, monic_coeffs, require_finite
from .rootfind import RootSet, critical_points_of_roots
from .smale import CONJ_SLACK


@dataclass(frozen=True)
class CStarElement:
    """Element of C^k: k complex coordinates, sup norm."""

    coords: tuple[complex, ...]

    def __post_init__(self):
        if not self.coords:
            raise DomainError("an algebra element needs at least one coordinate")
        object.__setattr__(self, "coords", tuple(complex(c) for c in self.coords))
        for c in self.coords:
            require_finite(c, "coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def norm(self) -> float:
        return max(abs(c) for c in self.coords)

    def _check_dim(self, other: "CStarElement") -> None:
        if self.dim != other.dim:
            raise DomainError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def to_json(self) -> list:
        return [[c.real, c.imag] for c in self.coords]


@dataclass(frozen=True)
class CStarPoly:
    """Monic root-form polynomial over the model algebra."""

    roots: tuple[CStarElement, ...]

    def __post_init__(self):
        if len(self.roots) < 2:
            raise DomainError("algebra polynomials need degree >= 2")
        k = self.roots[0].dim
        for r in self.roots:
            if r.dim != k:
                raise DomainError("all roots must share one dimension")

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def dim(self) -> int:
        return self.roots[0].dim

    @cached_property
    def columns(self) -> tuple[tuple[complex, ...], ...]:
        """The roots' coordinate-t column for each Gelfand point t: the roots
        of the scalar polynomial along that point."""
        return tuple(zip(*(r.coords for r in self.roots)))

    @cached_property
    def critical_threshold(self) -> float:
        """z is (numerically) critical when ||P'(z)|| is at or below this:
        CRITICAL_TOL times the largest coefficient modulus of the coordinate
        polynomials, at least 1."""
        scale = max(max(abs(c) for c in monic_coeffs(col)) for col in self.columns)
        return CRITICAL_TOL * max(1.0, scale)

    def to_json(self) -> dict:
        return {"roots": [r.to_json() for r in self.roots]}


@dataclass(frozen=True)
class CriticalSet:
    """Per-coordinate critical points; the critical set is the product of
    the coordinates' pools, ``product_size`` elements in all."""

    per_coordinate: tuple[RootSet, ...]
    product_size: int


@dataclass(frozen=True)
class CStarVerdict:
    """Outcome of the quotient checks at one sample point."""

    min_ratio: float
    max_ratio: float
    sharp_pass: bool
    dual_pass: bool
    strong_smale_pass: bool
    strong_dual_pass: bool


def _coordinate_terms(roots, zt: complex, pool) -> tuple[complex, list[complex]]:
    """(P'(zt), [P(zt) - P(w) for w in pool]) for P = prod(x - a_i) over the
    scalar roots a_i.

    The z-side factors zt - a_i and their prefix products are formed once.
    P'(zt) sums the products with one factor removed, right to left.  Each
    difference is (zt - w) * sum_j prod_{i<j}(zt - a_i) * prod_{i>j}(w - a_i),
    summed left to right; the sum avoids the cancellation the direct
    difference suffers when zt and w are close.
    """
    n = len(roots)
    zf = [zt - r for r in roots]
    prefix = [1.0 + 0.0j] * (n + 1)
    for i, f in enumerate(zf):
        prefix[i + 1] = prefix[i] * f
    suffix = 1.0 + 0.0j
    deriv = 0.0 + 0.0j
    for j in range(n - 1, -1, -1):
        deriv += prefix[j] * suffix
        suffix *= zf[j]
    diffs = []
    for w in pool:
        wsuffix = [1.0 + 0.0j]  # prod_{i>j}(w - a_i) for j = n-1 down to 0
        for r in roots[:0:-1]:
            wsuffix.append(wsuffix[-1] * (w - r))
        acc = 0.0 + 0.0j
        for pj, sj in zip(prefix, reversed(wsuffix)):
            acc += pj * sj
        diffs.append(acc * (zt - w))
    return deriv, diffs


def cstar_derivative_eval(P: CStarPoly, z: CStarElement) -> CStarElement:
    """P'(z), coordinate by coordinate."""
    P.roots[0]._check_dim(z)
    return CStarElement(
        tuple(_coordinate_terms(col, zt, ())[0] for col, zt in zip(P.columns, z.coords))
    )


def enumerate_critical_set(P: CStarPoly) -> CriticalSet:
    """Critical elements of P as the product of coordinate critical sets.

    The derivative vanishes as an algebra element exactly when it vanishes
    in every coordinate, so each coordinate contributes its scalar critical
    points independently.
    """
    per_coord = tuple(critical_points_of_roots(col) for col in P.columns)
    return CriticalSet(per_coord, math.prod(len(rs.roots) for rs in per_coord))


def product_extremes(tables, scale):
    """(min, max) of max_t A_t / (max_t B_t * scale) over the product of the
    tables, whose rows start (A_t, B_t); scale > 0, floats or Fractions.

    An element's denominator comes from its dominant row (s, w_s), the one
    with B_s = D the element's largest B.  Among the elements with that
    dominant row, the smallest numerator takes in every other coordinate
    the smallest A_t among the rows with B_t <= D, and the largest takes
    the largest; a row is skipped when some coordinate has no row within
    D.  Each candidate is the expression the element itself gives, so the
    extremes equal those of a loop over the whole product.  A row kept with
    D = 0 means z is an element of the product, and the caller must rule
    that out first: the division would fail.
    """
    lo, hi = math.inf, -math.inf
    for s, rows in enumerate(tables):
        for a, d, *_ in rows:
            near = [
                [row[0] for row in other if row[1] <= d]
                for t, other in enumerate(tables)
                if t != s
            ]
            if all(near):
                den = d * scale
                lo = min(lo, max([a] + [min(x) for x in near]) / den)
                hi = max(hi, max([a] + [max(x) for x in near]) / den)
    return lo, hi


def check_strong_forms(
    P: CStarPoly, z: CStarElement, crit: CriticalSet | None = None
) -> CStarVerdict:
    """Min/max of the normalized quotient over the critical set, plus the
    operator-order strong forms; crit is P's critical set when the caller
    has already computed it.

    In the model, x <= y for self-adjoint x, y means coordinatewise order,
    so the strong inequalities compare squared moduli per coordinate, and a
    strong flag is set when some single critical element satisfies the
    inequality in every coordinate.  Every per-element term depends on one
    coordinate, so coordinate t gets one row (|P_t(z_t) - P_t(w_t)|,
    |z_t - w_t|, |w_t|) per critical point w_t, and product_extremes reads
    the extremes off those tables.  One pass per coordinate gives P'_t(z_t)
    and the coordinate's rows (_coordinate_terms).
    """
    P.roots[0]._check_dim(z)
    if crit is None:
        crit = enumerate_critical_set(P)
    n = P.degree
    sharp_sq = ((n - 1) / n) ** 2
    dual_sq = 1.0 / n ** 2
    # the set is a full product, so some element passes a strong form in
    # every coordinate exactly when every coordinate has a passing w_t
    strong_smale = strong_dual = True
    tables = []
    dnorm = 0.0
    for col, zt, rs in zip(P.columns, z.coords, crit.per_coordinate):
        dt, diffs = _coordinate_terms(col, zt, rs.roots)
        dabs = abs(require_finite(dt, "P'(z)"))
        dnorm = max(dnorm, dabs)
        dsq = dabs ** 2
        rows = []
        smale_t = dual_t = False
        for diff, wt in zip(diffs, rs.roots):
            num = abs(diff)
            dist = abs(zt - wt)
            rows.append((num, dist, abs(wt)))
            # coordinatewise order of the squared sides, relative slack
            lhs = num ** 2
            rhs = sharp_sq * dist ** 2 * dsq
            smale_t = smale_t or not lhs > rhs + CONJ_SLACK * max(1.0, lhs, rhs)
            rhs = dual_sq * dist ** 2 * dsq
            dual_t = dual_t or not rhs > lhs + CONJ_SLACK * max(1.0, lhs, rhs)
        tables.append(rows)
        strong_smale = strong_smale and smale_t
        strong_dual = strong_dual and dual_t
    if dnorm <= P.critical_threshold:
        raise PreconditionError("z is (numerically) a critical point of P")
    point_scale = max(1.0, z.norm())
    # z coincides with an element w when max_t |z_t - w_t| <= COINCIDENCE_TOL
    # * max(point_scale, max_t |w_t|).  Such an element exists exactly when
    # some row (s, w_s) meets its own threshold COINCIDENCE_TOL
    # * max(point_scale, |w_s|) together with the nearest row of every other
    # coordinate; no element is nearer than floor, the largest of those
    # nearest distances.  product_extremes must not see z on an element.
    floor = max(min(row[1] for row in rows) for rows in tables)
    for rows in tables:
        for _, dist, wabs in rows:
            if max(dist, floor) <= COINCIDENCE_TOL * max(point_scale, wabs):
                raise PreconditionError("z coincides with a critical element")
    # CStarPoly has degree >= 2, so every table has a row
    min_ratio, max_ratio = product_extremes(tables, dnorm)
    return CStarVerdict(
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        sharp_pass=min_ratio <= (n - 1) / n + CONJ_SLACK,
        dual_pass=max_ratio >= 1.0 / n - CONJ_SLACK,
        strong_smale_pass=strong_smale,
        strong_dual_pass=strong_dual,
    )
