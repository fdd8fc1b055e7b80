"""Scalar mean value quantities for complex polynomials.

For a non-critical point z, the quotient |P(z) - P(w)| / |z - w| over
critical points w of P, normalized by |P'(z)|, drives two families of
quantities:

* the minimized quotient, whose supremum over z is estimated from below
  (Smale's theorem caps it at 4, the sharp value is conjectured to be
  (n-1)/n or 1);
* the maximized quotient, whose infimum over z is estimated from above
  (bounded below by |P'(z)| / (n 4^n), conjecturally by |P'(z)| / n).

Sampling estimates are one-sided by construction and reported as such.
Each polynomial has one cached kernel (``_kernel``) holding P', its critical
threshold and its critical points, which every entry point reads; it scans
all critical points at a point z in a single pass.  The kernel keeps its
last scan, so ``s_at`` and ``ds_at`` at the same z object share one scan;
the key is the object's identity, because ``==`` would merge 0j and -0j.
The normalized quantities at z = 0, which the extremal search shares, use
``quotients_at_zero``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, PreconditionError
from .polycore import (
    COINCIDENCE_TOL,
    CRITICAL_TOL,
    Poly,
    Scalar,
    derivative,
    evaluate,
    is_normalized,
    kth_derivative,
)
from .rng import Stream
from .rootfind import cached_critical_points, find_roots

# Slack used when a float comparison sits on a theorem/conjecture boundary.
CONJ_SLACK = 1e-9

# Samplers keep z at least this far from every critical point so the
# quotients stay well conditioned.
SAMPLER_MARGIN = 1e-3

_STREAM_SAMPLES = 11

# the key of a kernel's memo before its first scan; no caller passes it
_NO_POINT = object()


@dataclass(frozen=True)
class SampleConfig:
    """Controls the seeded sampling loops behind the estimate operations."""

    n_samples: int = 200
    seed: int = 42
    refine_starts: int = 5
    refine_max_iter: int = 120

    def __post_init__(self):
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be at least 1, got {self.n_samples}")
        if self.refine_starts < 0 or self.refine_max_iter < 0:
            raise DomainError(
                "refine_starts and refine_max_iter must be non-negative, got "
                f"{self.refine_starts} and {self.refine_max_iter}"
            )


@dataclass(frozen=True)
class QuotientWitness:
    """A critical point together with its quotient and normalized ratio."""

    w: complex
    quotient: float
    ratio: float


@dataclass(frozen=True)
class BoundCheck:
    name: str
    kind: str  # "upper" or "lower"
    bound: float
    observed: float
    passed: bool


@dataclass(frozen=True)
class ScalarReport:
    degree: int
    s_estimate: float
    ds_estimate: float
    s0: float | None
    ds0: float | None
    witnesses: tuple[QuotientWitness, ...]
    bound_checks: tuple[BoundCheck, ...]
    s_argmax_z: complex | None = None
    ds_argmin_z: complex | None = None

    @property
    def all_theorems_pass(self) -> bool:
        return all(c.passed for c in self.bound_checks)


class _QuotientKernel:
    """Everything the quotients of one polynomial need, hoisted out of the
    per-point loop; built once per polynomial, by ``_kernel`` only.

    ``scan`` performs the float operations of ``evaluate`` on P' and of
    ``divided_difference`` in the same order, so its values agree with them
    bit for bit.

    ``scan`` keeps its last result in ``_last`` as (z, result), so ``s_at``
    and ``ds_at`` at one point share a scan.  The key is the caller's z
    object, not its value: 0j == -0j although their bits differ, and
    ``complex(z)`` makes a new object for a float or int z.  A scan that
    raises stores nothing, and the quotients are a tuple, so no caller can
    change the stored result.  ``_last`` is replaced in one attribute
    store, so a reader never sees a z paired with another z's result.
    """

    __slots__ = ("dp", "criticals", "_critical_scale", "_coeffs", "_last")

    def __init__(self, p: Poly):
        if p.degree < 2:
            raise DomainError("mean value quantities need degree >= 2")
        self.dp = derivative(p)
        self._critical_scale = CRITICAL_TOL * self.dp.coeff_scale
        self._coeffs = p.coeffs[1:]
        # find_roots passes every root through evaluate, which rejects
        # non-finite values, so the critical points need no finiteness check
        self.criticals = cached_critical_points(p).roots
        self._last = (_NO_POINT, None)

    def derivative_abs(self, z: Scalar) -> float:
        """|P'(z)|; DomainError for a non-finite z or an overflowing
        |z|^degree, PreconditionError at a critical point of P."""
        z = complex(z)
        dabs = abs(evaluate(self.dp, z))
        try:
            zpow = max(1.0, abs(z)) ** self.dp.degree
        except OverflowError:
            raise DomainError(f"|z|^{self.dp.degree} overflows at z = {z!r}") from None
        if dabs <= self._critical_scale * zpow:
            raise PreconditionError(f"z = {z!r} is a critical point of p")
        return dabs

    def scan(self, z: Scalar) -> tuple[float, tuple[float, ...]]:
        """|P'(z)| and the quotient at every critical point, in root order."""
        last = self._last
        if last[0] is z:
            return last[1]
        dabs = self.derivative_abs(z)
        c = complex(z)
        cscale = max(1.0, abs(c))
        coeffs = self._coeffs
        quotients = []
        for w in self.criticals:
            if abs(c - w) <= COINCIDENCE_TOL * max(cscale, abs(w)):
                raise PreconditionError(f"points coincide: z = {c!r}, w = {w!r}")
            acc = 0.0 + 0.0j
            h = 1.0 + 0.0j
            wp = 1.0 + 0.0j
            for a in coeffs:
                acc += a * h
                wp *= w
                h = c * h + wp
            quotients.append(abs(acc))
        result = (dabs, tuple(quotients))
        self._last = (z, result)
        return result

    def extreme(
        self, dabs: float, quotients: tuple[float, ...], smallest: bool
    ) -> QuotientWitness:
        """Witness with the smallest (or largest) of the quotients ``scan``
        returned with ``dabs``; ties go to the first in root order."""
        i = (min if smallest else max)(range(len(quotients)), key=quotients.__getitem__)
        q = quotients[i]
        return QuotientWitness(self.criticals[i], q, q * (1.0 / dabs))


_kernel = lru_cache(maxsize=2048)(_QuotientKernel)


# perfbench/tracer.py wraps s_at, ds_at and this helper by name
def _witnesses(p: Poly, z: Scalar, smallest: bool) -> QuotientWitness:
    """Witness with the smallest (or largest) quotient at z."""
    kernel = _kernel(p)
    return kernel.extreme(*kernel.scan(z), smallest)


def s_at(p: Poly, z: Scalar) -> QuotientWitness:
    """Witness minimizing the quotient; ties go to the first in root order."""
    return _witnesses(p, z, True)


def ds_at(p: Poly, z: Scalar) -> QuotientWitness:
    """Witness maximizing the quotient; ties go to the first in root order."""
    return _witnesses(p, z, False)


def quotients_at_zero(coeffs, points) -> list[float]:
    """|P(c) / c| at each point c, where ``coeffs`` are a_1 .. a_n of a P
    with P(0) = 0: the float operations of ``divided_difference(P, c, 0)``
    in the same order, so its values bit for bit.  A non-finite point is a
    DomainError; the coefficients are the caller's to check."""
    out = []
    for c in points:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise DomainError(f"point z must be finite, got {c!r}")
        acc = 0.0 + 0.0j
        h = 1.0 + 0.0j
        for a in coeffs:
            acc += a * h
            h = c * h + 0j
        out.append(abs(acc))
    return out


def _normalized_witnesses(p: Poly) -> list[QuotientWitness]:
    criticals = _kernel(p).criticals
    if not is_normalized(p):
        raise PreconditionError("p must satisfy p(0) = 0 and p'(0) = 1")
    for w in criticals:
        if abs(w) <= COINCIDENCE_TOL:
            raise PreconditionError(f"critical point {w!r} coincides with 0")
    dabs = abs(p.coeffs[1])
    return [
        QuotientWitness(w, q, q / dabs)
        for w, q in zip(criticals, quotients_at_zero(p.coeffs[1:], criticals))
    ]


def s0(p: Poly) -> QuotientWitness:
    """min over critical points w of |P(w) / w| for normalized P."""
    return min(_normalized_witnesses(p), key=lambda wit: wit.quotient)


def ds0(p: Poly) -> QuotientWitness:
    """max over critical points w of |P(w) / w| for normalized P."""
    return max(_normalized_witnesses(p), key=lambda wit: wit.quotient)


def _sampling_radius(p: Poly) -> float:
    roots = p.roots if p.roots is not None else find_roots(p).expanded()
    return 2.0 * (1.0 + max((abs(r) for r in roots), default=0.0))


def sample_points(p: Poly, sampler: SampleConfig) -> list[complex]:
    """Deterministic admissible sample points for the estimate operations."""
    kernel = _kernel(p)
    criticals, dp = kernel.criticals, kernel.dp
    radius = _sampling_radius(p)
    stream = Stream(sampler.seed, _STREAM_SAMPLES)
    floor = 10.0 * CRITICAL_TOL * dp.coeff_scale
    pts: list[complex] = []
    for _ in range(sampler.n_samples):
        z = None
        for _attempt in range(256):
            cand = stream.complex_in_disk(radius)
            if all(abs(cand - w) > SAMPLER_MARGIN for w in criticals) and abs(
                evaluate(dp, cand)
            ) > floor * max(1.0, abs(cand)) ** dp.degree:
                z = cand
                break
        if z is not None:
            pts.append(z)
    if not pts:
        raise PreconditionError("sampler could not find any admissible point")
    return pts


def _refined(kernel: _QuotientKernel, scored, maximize: bool, sampler: SampleConfig):
    """Best sampled (value, z, witness), then simplex refinement of the ratio
    surface from the top starts.

    ``scored`` holds (ratio, z, witness) best first.  A refined point wins
    only when strictly better, so ties keep the sampled point, then the
    earliest start.  Maximizing refines the smallest quotient at each z,
    minimizing the largest.
    """
    # imported on first use: callers that never refine skip its load time
    from .simplex import nelder_mead

    pick = min if maximize else max
    sign = -1.0 if maximize else 1.0

    def objective(xy):
        try:
            dabs, qs = kernel.scan(complex(xy[0], xy[1]))
        except (PreconditionError, DomainError):
            return math.inf
        return sign * (pick(qs) * (1.0 / dabs))

    best_val, best_z, best_wit = scored[0]
    refined_z = None
    for _, z0, _ in scored[: sampler.refine_starts]:
        res = nelder_mead(
            objective,
            [z0.real, z0.imag],
            maxiter=sampler.refine_max_iter,
            xatol=1e-10,
            fatol=1e-12,
        )
        val = sign * res.fun
        if math.isfinite(val) and (val > best_val if maximize else val < best_val):
            best_val = val
            refined_z = complex(res.x[0], res.x[1])
    if refined_z is not None:
        best_z, best_wit = refined_z, kernel.extreme(*kernel.scan(refined_z), maximize)
    return best_val, best_z, best_wit


def _upper(name, bound, observed):
    return BoundCheck(name, "upper", bound, observed, observed <= bound + CONJ_SLACK)


def _lower(name, bound, observed):
    return BoundCheck(name, "lower", bound, observed, observed >= bound - CONJ_SLACK)


def s_upper_bounds(n: int) -> list[tuple[str, float]]:
    """Published theorem ceilings for the minimized-quotient supremum."""
    return [
        ("smale_theorem", 4.0),
        ("beardon_minda_ng", 4.0 ** ((n - 2) / (n - 1))),
        ("fujikawa_sugawa", 4.0 * (1.0 + (n - 2) * 4.0 ** (-1.0 / (n - 1))) / (n + 1)),
        ("conte_fujikawa_lakic", 4.0 * (n - 1) / (n + 1)),
    ]


def ds_lower_bounds(n: int) -> list[tuple[str, float]]:
    """Published theorem floors for the maximized-quotient infimum."""
    return [
        ("dubinin_sugawa_theorem", 1.0 / (n * 4.0 ** n)),
        ("dubinin_tan", math.tan(math.pi / (4.0 * n)) / n),
    ]


def bound_report(p: Poly, sampler: SampleConfig = SampleConfig()) -> ScalarReport:
    """Evaluate every theorem-status bound against sampled estimates.

    All recorded inequalities are proved results, so a failed check means a
    software or conditioning bug, never new mathematics; the report carries
    the witnesses needed to chase such a failure down.
    """
    n = p.degree
    pts = sample_points(p, sampler)
    kernel = _kernel(p)
    s_scored = []
    ds_scored = []
    high_max: dict[int, float] = {k: 0.0 for k in range(2, n + 1)}
    dks = {k: kth_derivative(p, k) for k in range(2, n + 1)}
    for z in pts:
        dval, qs = kernel.scan(z)
        for scored, smallest in ((s_scored, True), (ds_scored, False)):
            wit = kernel.extreme(dval, qs, smallest)
            scored.append((wit.ratio, z, wit))
        # the higher-order theorem is an exists-a-witness statement; the
        # quantity grows with |P(z) - P(w)|, so the critical point with the
        # nearest critical VALUE realizes it (the quotient minimizer does
        # not: it can overshoot the bound)
        diff = min(q * abs(z - w) for w, q in zip(kernel.criticals, qs))
        for k in range(2, n + 1):
            kth = abs(evaluate(dks[k], z))
            val = (kth / math.factorial(k)) * diff ** (k - 1) / dval ** k
            if val > high_max[k]:
                high_max[k] = val

    s_scored.sort(key=lambda item: item[0], reverse=True)
    ds_scored.sort(key=lambda item: item[0])
    s_best, s_z, s_wit = _refined(kernel, s_scored, True, sampler)
    ds_best, ds_z, ds_wit = _refined(kernel, ds_scored, False, sampler)

    checks = [_upper(name, b, s_best) for name, b in s_upper_bounds(n)]
    checks.extend(_lower(name, b, ds_best) for name, b in ds_lower_bounds(n))
    for k in range(2, n + 1):
        checks.append(_upper(f"higher_order_k{k}", 4.0 ** (k - 1), high_max[k]))
    if n == 2:
        # at degree 2 the k = 2 quantity is identically 1/4, far under the
        # stated 4^(k-1) ceiling; record the sharp comparison as well
        checks.append(_upper("higher_order_degree2_sharp", 0.25, high_max[2]))

    s0_val = ds0_val = None
    if is_normalized(p):
        wits = _normalized_witnesses(p)
        s0_val = min(wits, key=lambda wit: wit.quotient).ratio
        ds0_val = max(wits, key=lambda wit: wit.quotient).ratio
        checks.append(_lower("ng_zhang_ds0", 4.0 ** (-n), ds0_val))
        for name, b in s_upper_bounds(n):
            checks.append(_upper(f"{name}_s0", b, s0_val))

    return ScalarReport(
        degree=n,
        s_estimate=s_best,
        ds_estimate=ds_best,
        s0=s0_val,
        ds0=ds0_val,
        witnesses=(s_wit, ds_wit),
        bound_checks=tuple(checks),
        s_argmax_z=s_z,
        ds_argmin_z=ds_z,
    )

