"""Finite model of a commutative C*-algebra and its polynomial checks.

The model algebra is C^k with pointwise operations, complex conjugation as
the involution, and the sup norm: the continuous functions on k points.
Every finite-dimensional commutative C*-algebra is of this form, so any
counterexample found here embeds into the general commutative case.

Polynomials over the model are monic products of linear factors with
algebra-element roots.  A point w is critical when the derivative is the
zero element, i.e. vanishes in every coordinate; the critical set is a
Cartesian product of per-coordinate scalar critical points and is
enumerated exhaustively (lazily) rather than searched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .dynamics import (
    VERDICT_CONVERGED,
    OrbitConfig,
    iterate_orbit,
    nonzero_fixed_points,
)
from .errors import CapacityError, DomainError, PreconditionError
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

DEFAULT_PRODUCT_CAP = 10 ** 6


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

    def star(self) -> "CStarElement":
        return CStarElement(tuple(c.conjugate() for c in self.coords))

    def __add__(self, other: "CStarElement") -> "CStarElement":
        self._check_dim(other)
        return CStarElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "CStarElement") -> "CStarElement":
        self._check_dim(other)
        return CStarElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other: "CStarElement") -> "CStarElement":
        self._check_dim(other)
        return CStarElement(tuple(a * b for a, b in zip(self.coords, other.coords)))

    def _check_dim(self, other: "CStarElement") -> None:
        if self.dim != other.dim:
            raise DomainError(f"dimension mismatch: {self.dim} vs {other.dim}")

    @staticmethod
    def zero(k: int) -> "CStarElement":
        return CStarElement((0.0 + 0.0j,) * k)

    @staticmethod
    def one(k: int) -> "CStarElement":
        return CStarElement((1.0 + 0.0j,) * k)

    @staticmethod
    def from_json(obj, where: str = "element") -> "CStarElement":
        if not isinstance(obj, list) or not obj:
            raise DomainError(f"{where} must be a non-empty list of [re, im] pairs")
        coords = []
        for i, pair in enumerate(obj):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise DomainError(f"{where}[{i}] must be a [re, im] pair")
            coords.append(complex(pair[0], pair[1]))
        return CStarElement(tuple(coords))

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

    def coordinate_poly(self, t: int) -> Poly:
        """The scalar polynomial along Gelfand point t."""
        return from_roots(tuple(r.coords[t] for r in self.roots))

    def to_json(self) -> dict:
        return {"roots": [r.to_json() for r in self.roots]}

    @staticmethod
    def from_json(obj) -> "CStarPoly":
        if not isinstance(obj, dict) or "roots" not in obj:
            raise DomainError('algebra poly must be an object with "roots"')
        roots = [
            CStarElement.from_json(r, f"roots[{i}]") for i, r in enumerate(obj["roots"])
        ]
        return CStarPoly(tuple(roots))


@dataclass(frozen=True)
class CriticalSet:
    """Per-coordinate critical points plus the (lazy) product structure."""

    per_coordinate: tuple[RootSet, ...]
    product_size: int

    def elements(self):
        """Iterate the full critical set as algebra elements, lazily."""
        pools = [rs.roots for rs in self.per_coordinate]
        for combo in itertools.product(*pools):
            yield CStarElement(combo)


@dataclass(frozen=True)
class CStarVerdict:
    """Outcome of the quotient checks at one sample point."""

    z: CStarElement
    best_witness: CStarElement
    min_ratio: float
    max_ratio: float
    weak_pass: bool
    sharp_pass: bool
    dual_pass: bool
    strong_smale_pass: bool | None = None
    strong_dual_pass: bool | None = None


def cstar_eval(P: CStarPoly, z: CStarElement) -> CStarElement:
    """P(z): pointwise product of the linear factors."""
    if z.dim != P.dim:
        raise DomainError(f"dimension mismatch: poly {P.dim}, point {z.dim}")
    out = []
    for t in range(P.dim):
        acc = 1.0 + 0.0j
        zt = z.coords[t]
        for r in P.roots:
            acc *= zt - r.coords[t]
        out.append(acc)
    return CStarElement(tuple(out))


def cstar_derivative_eval(P: CStarPoly, z: CStarElement) -> CStarElement:
    """P'(z): pointwise sum of products with one factor removed."""
    if z.dim != P.dim:
        raise DomainError(f"dimension mismatch: poly {P.dim}, point {z.dim}")
    return CStarElement(
        tuple(
            sum_of_products_derivative([r.coords[t] for r in P.roots], z.coords[t])
            for t in range(P.dim)
        )
    )


def _difference_coords(P: CStarPoly, z: CStarElement, w: CStarElement):
    """Per-coordinate P(z)_t - P(w)_t via the telescoped product difference.

    prod(z - a_i) - prod(w - a_i) = (z - w) * sum_j prod_{i<j}(z - a_i)
    * prod_{i>j}(w - a_i); evaluating the sum avoids the cancellation the
    direct difference suffers when z and w are close.
    """
    n = P.degree
    diffs = []
    for t in range(P.dim):
        zt = z.coords[t]
        wt = w.coords[t]
        zf = [zt - r.coords[t] for r in P.roots]
        wf = [wt - r.coords[t] for r in P.roots]
        suffix = [1.0 + 0.0j] * (n + 1)
        for j in range(n - 1, -1, -1):
            suffix[j] = suffix[j + 1] * wf[j]
        acc = 0.0 + 0.0j
        prefix = 1.0 + 0.0j
        for j in range(n):
            acc += prefix * suffix[j + 1]
            prefix *= zf[j]
        diffs.append(acc * (zt - wt))
    return diffs


def enumerate_critical_set(
    P: CStarPoly,
    cfg: RootFindConfig = RootFindConfig(),
    cap: int = DEFAULT_PRODUCT_CAP,
) -> CriticalSet:
    """Critical elements of P as the product of coordinate critical sets.

    The derivative vanishes as an algebra element exactly when it vanishes
    in every coordinate, so each coordinate contributes its scalar critical
    points independently.
    """
    per_coord = tuple(
        critical_points(P.coordinate_poly(t), cfg) for t in range(P.dim)
    )
    size = 1
    for rs in per_coord:
        size *= len(rs.roots)
    if size > cap:
        raise CapacityError(
            f"critical product has {size} elements (cap {cap}); "
            "reduce the degree or the dimension"
        )
    return CriticalSet(per_coord, size)


def _derivative_threshold(P: CStarPoly) -> float:
    scale = max(
        max(abs(c) for c in P.coordinate_poly(t).coeffs) for t in range(P.dim)
    )
    return CRITICAL_TOL * max(1.0, scale)


def _strong_holds(diffs, z, w, dval, factor_sq, reverse):
    """Coordinatewise positive-element comparison of the squared sides."""
    for t in range(len(diffs)):
        lhs = abs(diffs[t]) ** 2
        rhs = factor_sq * abs(z.coords[t] - w.coords[t]) ** 2 * abs(dval.coords[t]) ** 2
        slack = CONJ_SLACK * max(1.0, lhs, rhs)
        if reverse:
            if rhs > lhs + slack:
                return False
        else:
            if lhs > rhs + slack:
                return False
    return True


def _check(P: CStarPoly, z: CStarElement, strong: bool) -> CStarVerdict:
    """Exhaustive min/max of the normalized quotient over the critical set,
    plus the strong forms when asked; their flags are None otherwise."""
    crit = enumerate_critical_set(P)
    dval = cstar_derivative_eval(P, z)
    dnorm = dval.norm()
    if dnorm <= _derivative_threshold(P):
        raise PreconditionError("z is (numerically) a critical point of P")
    point_scale = max(1.0, z.norm())
    n = P.degree
    sharp_sq = ((n - 1) / n) ** 2
    dual_sq = 1.0 / n ** 2
    strong_smale = strong_dual = False
    min_ratio = math.inf
    max_ratio = -math.inf
    best_w = None
    # CStarPoly has degree >= 2, so the critical product is never empty
    for w in crit.elements():
        dist = max(abs(a - b) for a, b in zip(z.coords, w.coords))
        if dist <= COINCIDENCE_TOL * max(point_scale, w.norm()):
            raise PreconditionError("z coincides with a critical element")
        diffs = _difference_coords(P, z, w)
        ratio = max(abs(d) for d in diffs) / (dist * dnorm)
        if ratio < min_ratio:
            min_ratio, best_w = ratio, w
        if ratio > max_ratio:
            max_ratio = ratio
        if strong:
            if not strong_smale and _strong_holds(diffs, z, w, dval, sharp_sq, False):
                strong_smale = True
            if not strong_dual and _strong_holds(diffs, z, w, dval, dual_sq, True):
                strong_dual = True
    return CStarVerdict(
        z=z,
        best_witness=best_w,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        weak_pass=min_ratio <= 1.0 + CONJ_SLACK,
        sharp_pass=min_ratio <= (n - 1) / n + CONJ_SLACK,
        dual_pass=max_ratio >= 1.0 / n - CONJ_SLACK,
        strong_smale_pass=strong_smale if strong else None,
        strong_dual_pass=strong_dual if strong else None,
    )


def check_smale(P: CStarPoly, z: CStarElement) -> CStarVerdict:
    """Exhaustive min/max of the normalized quotient over the critical set."""
    return _check(P, z, strong=False)


def check_strong_forms(P: CStarPoly, z: CStarElement) -> CStarVerdict:
    """Norm verdict plus the coordinatewise operator-order strong forms.

    In the model, x <= y for self-adjoint x, y means coordinatewise order,
    so the strong inequalities reduce to per-coordinate comparisons of
    squared moduli.  A strong flag is set when some single critical element
    satisfies the inequality in every coordinate simultaneously.
    """
    return _check(P, z, strong=True)


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
    return c, dval, _difference_coords(P, z, c)


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


def is_cstar_normalized(P: CStarPoly, tol: float = 1e-10) -> bool:
    zero = CStarElement.zero(P.dim)
    if cstar_eval(P, zero).norm() > tol:
        return False
    dval = cstar_derivative_eval(P, zero)
    return (dval - CStarElement.one(P.dim)).norm() <= tol


@dataclass(frozen=True)
class CStarOrbitRecord:
    w: CStarElement
    ratio: float
    verdict: str
    trajectory_len: int
    final_norm: float


@dataclass(frozen=True)
class DynamicsReport:
    degree: int
    dim: int
    records: tuple[CStarOrbitRecord, ...]
    overall_pass: bool


def cstar_dynamics_check(
    P: CStarPoly, cfg: OrbitConfig = OrbitConfig()
) -> DynamicsReport:
    """Critical-orbit convergence check for a normalized algebra polynomial.

    For each critical element w away from zero, records ||P(w)|| / ||w||
    and iterates z -> P(z) pointwise; the overall flag asks for some w with
    ratio <= 1 whose orbit converges to the zero element.
    """
    if not is_cstar_normalized(P):
        raise PreconditionError("P must satisfy P(0) = 0 and P'(0) = 1")

    coord_fixed = [
        nonzero_fixed_points(P.coordinate_poly(t)) for t in range(P.dim)
    ]

    def step(x: CStarElement) -> CStarElement:
        return cstar_eval(P, x)

    def norm_of(x: CStarElement) -> float:
        return x.norm()

    def distance(x: CStarElement, y: CStarElement) -> float:
        return (x - y).norm()

    def margin_ok(x: CStarElement) -> bool:
        for t, fps in enumerate(coord_fixed):
            xt = x.coords[t]
            if abs(xt) <= cfg.zero_tol:
                continue
            for fp in fps:
                if 2.0 * abs(xt) > abs(xt - fp):
                    return False
        return True

    crit = enumerate_critical_set(P)
    records = []
    overall = False
    for w in crit.elements():
        if w.norm() <= COINCIDENCE_TOL:
            continue
        pw = cstar_eval(P, w)
        ratio = pw.norm() / w.norm()
        verdict, steps, final_norm = iterate_orbit(
            step, norm_of, distance, w, cfg, margin_ok
        )
        records.append(CStarOrbitRecord(w, ratio, verdict, steps, final_norm))
        if ratio <= 1.0 + CONJ_SLACK and verdict == VERDICT_CONVERGED:
            overall = True
    return DynamicsReport(P.degree, P.dim, tuple(records), overall)
