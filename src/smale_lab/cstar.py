"""Finite model of a commutative C*-algebra and its polynomial checks.

The model algebra is C^k with pointwise operations, complex conjugation as
the involution, and the sup norm: the continuous functions on k points.
Every finite-dimensional commutative C*-algebra is of this form, so any
counterexample found here embeds into the general commutative case.

Polynomials over the model are monic products of linear factors with
algebra-element roots.  A point w is critical when the derivative is the
zero element, i.e. vanishes in every coordinate; the critical set is a
Cartesian product of per-coordinate scalar critical points, and the
quotient extremes over all of it come from per-coordinate tables
(``product_extremes``) without visiting the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, PreconditionError
from .polycore import (
    COINCIDENCE_TOL,
    CRITICAL_TOL,
    Poly,
    from_roots,
    require_finite,
    sum_of_products_derivative,
)
from .rootfind import RootFindConfig, RootSet, critical_points
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
    def coordinate_polys(self) -> tuple[Poly, ...]:
        """The scalar polynomial along each Gelfand point, built once; the
        .roots of entry t are the roots' coordinate-t column."""
        return tuple(from_roots(col) for col in zip(*(r.coords for r in self.roots)))

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

    z: CStarElement
    min_ratio: float
    max_ratio: float
    weak_pass: bool
    sharp_pass: bool
    dual_pass: bool
    strong_smale_pass: bool | None = None
    strong_dual_pass: bool | None = None


def cstar_derivative_eval(P: CStarPoly, z: CStarElement) -> CStarElement:
    """P'(z): pointwise sum of products with one factor removed."""
    if z.dim != P.dim:
        raise DomainError(f"dimension mismatch: poly {P.dim}, point {z.dim}")
    return CStarElement(
        tuple(
            sum_of_products_derivative(p.roots, zt)
            for p, zt in zip(P.coordinate_polys, z.coords)
        )
    )


def _telescoped_difference(roots, zt: complex, wt: complex) -> complex:
    """prod(zt - a_i) - prod(wt - a_i) over the scalar roots a_i.

    The difference equals (zt - wt) * sum_j prod_{i<j}(zt - a_i)
    * prod_{i>j}(wt - a_i); evaluating the sum avoids the cancellation the
    direct difference suffers when zt and wt are close.
    """
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


def enumerate_critical_set(
    P: CStarPoly, cfg: RootFindConfig = RootFindConfig()
) -> CriticalSet:
    """Critical elements of P as the product of coordinate critical sets.

    The derivative vanishes as an algebra element exactly when it vanishes
    in every coordinate, so each coordinate contributes its scalar critical
    points independently.
    """
    per_coord = tuple(critical_points(p, cfg) for p in P.coordinate_polys)
    return CriticalSet(per_coord, math.prod(len(rs.roots) for rs in per_coord))


def _derivative_threshold(P: CStarPoly) -> float:
    scale = max(max(abs(c) for c in p.coeffs) for p in P.coordinate_polys)
    return CRITICAL_TOL * max(1.0, scale)


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


def _check(
    P: CStarPoly, z: CStarElement, strong: bool, crit: CriticalSet | None
) -> CStarVerdict:
    """Min/max of the normalized quotient over the critical set, plus the
    strong forms when asked; their flags are None otherwise.

    Every per-element term depends on one coordinate, so coordinate t gets
    one row (|P_t(z_t) - P_t(w_t)|, |z_t - w_t|, |w_t|) per critical point
    w_t, and product_extremes reads the extremes off those tables.
    """
    if crit is None:
        crit = enumerate_critical_set(P)
    dval = cstar_derivative_eval(P, z)
    dnorm = dval.norm()
    if dnorm <= _derivative_threshold(P):
        raise PreconditionError("z is (numerically) a critical point of P")
    point_scale = max(1.0, z.norm())
    n = P.degree
    sharp_sq = ((n - 1) / n) ** 2
    dual_sq = 1.0 / n ** 2
    # the set is a full product, so some element passes a strong form in
    # every coordinate exactly when every coordinate has a passing w_t
    strong_smale = strong_dual = strong
    tables = []
    columns = zip(P.coordinate_polys, z.coords, dval.coords, crit.per_coordinate)
    for p, zt, dt, rs in columns:
        dsq = abs(dt) ** 2
        rows = []
        smale_t = dual_t = False
        for wt in rs.roots:
            num = abs(_telescoped_difference(p.roots, zt, wt))
            dist = abs(zt - wt)
            rows.append((num, dist, abs(wt)))
            if strong:
                # coordinatewise order of the squared sides, relative slack
                lhs = num ** 2
                rhs = sharp_sq * dist ** 2 * dsq
                smale_t = smale_t or not lhs > rhs + CONJ_SLACK * max(1.0, lhs, rhs)
                rhs = dual_sq * dist ** 2 * dsq
                dual_t = dual_t or not rhs > lhs + CONJ_SLACK * max(1.0, lhs, rhs)
        tables.append(rows)
        strong_smale = strong_smale and smale_t
        strong_dual = strong_dual and dual_t
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
        z=z,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        weak_pass=min_ratio <= 1.0 + CONJ_SLACK,
        sharp_pass=min_ratio <= (n - 1) / n + CONJ_SLACK,
        dual_pass=max_ratio >= 1.0 / n - CONJ_SLACK,
        strong_smale_pass=strong_smale if strong else None,
        strong_dual_pass=strong_dual if strong else None,
    )


def check_smale(P: CStarPoly, z: CStarElement) -> CStarVerdict:
    """Min/max of the normalized quotient over the whole critical set."""
    return _check(P, z, False, None)


def check_strong_forms(
    P: CStarPoly, z: CStarElement, crit: CriticalSet | None = None
) -> CStarVerdict:
    """Norm verdict plus the coordinatewise operator-order strong forms.

    In the model, x <= y for self-adjoint x, y means coordinatewise order,
    so the strong inequalities reduce to per-coordinate comparisons of
    squared moduli.  A strong flag is set when some single critical element
    satisfies the inequality in every coordinate simultaneously.  crit is
    P's critical set when the caller has already computed it.
    """
    return _check(P, z, True, crit)


def _degree2(a: CStarElement, b: CStarElement, z: CStarElement):
    """(c, P'(z), per-coordinate P(z) - P(c)) for P = (z - a)(z - b) with
    critical midpoint c."""
    a._check_dim(b)
    a._check_dim(z)
    P = CStarPoly((a, b))
    c = CStarElement(tuple((x + y) / 2.0 for x, y in zip(a.coords, b.coords)))
    dval = cstar_derivative_eval(P, z)
    if dval.norm() <= COINCIDENCE_TOL * max(1.0, z.norm(), c.norm()):
        raise PreconditionError("z is the critical midpoint of (a, b)")
    diffs = [
        _telescoped_difference(p.roots, zt, ct)
        for p, zt, ct in zip(P.coordinate_polys, z.coords, c.coords)
    ]
    return c, dval, diffs


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
