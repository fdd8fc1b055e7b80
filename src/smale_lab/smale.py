"""Scalar mean value quantities for complex polynomials.

For a non-critical point z, the quotient |P(z) - P(w)| / |z - w| over
critical points w of P, normalized by |P'(z)|, drives two families of
quantities:

* the minimized quotient, whose supremum over z is estimated from below
  (Smale's theorem caps it at 4, the sharp value is conjectured to be
  (n-1)/n or 1);
* the maximized quotient, whose infimum over z is estimated from above
  (bounded below by |P'(z)| / (n 4^n), conjecturally by |P'(z)| / n).

Sampling estimates are one-sided by construction and reported as such.  The
minimized side is refined by simplex search; the maximized side's ratio tends
to 1/n as |z| grows, so its estimate is the sampled minimum capped at 1/n.
Every entry point reads the kernel of the polynomial in hand from one
cache, ``_kernel``, which keeps one kernel: nothing is cached across
polynomials.  The kernel holds P's coefficients, critical threshold and
critical points; one division of P by (x - z) gives P'(z) and every
quotient at z, and the division loop also runs Horner's rule on B as it
forms B, so it gives
|P'(z)| = |B(z)|; the quotients at the critical points, s0/ds0, the
extremal search and the dynamics read every other float quotient modulus
from one Horner pass over B, ``quotient_moduli``.
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
    require_finite,
    taylor_coefficients,
)
from .rng import Stream
from .rootfind import critical_points, find_roots

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
    ds_argmin_z: complex | None = None  # None: ds_estimate is the limit 1/n

    @property
    def all_theorems_pass(self) -> bool:
        return all(c.passed for c in self.bound_checks)


class _QuotientKernel:
    """Everything the quotients of one polynomial need, hoisted out of the
    per-point loop; built by ``_kernel`` only, once per polynomial in hand.

    ``scan`` divides P by (x - z) once, P(x) = (x - z) B(x) + P(z), and
    reads P'(z) = B(z) and each quotient (P(z) - P(w)) / (z - w) = B(w)
    from B.  No two values of P are subtracted, so nothing cancels when z
    is near a critical point w.

    ``scan`` keeps its last result in ``_last`` as (z, result), so ``s_at``
    and ``ds_at`` at one point share a scan.  The key is the caller's z
    object, not its value: 0j == -0j although their bits differ, and
    ``complex(z)`` makes a new object for a float or int z.  A scan that
    raises stores nothing, and the quotients are a tuple, so no caller can
    change the stored result.  ``_last`` is replaced in one attribute
    store, so a reader never sees a z paired with another z's result.
    """

    __slots__ = ("dp", "criticals", "_critical_scale", "_lead", "_tail", "_last")

    def __init__(self, p: Poly):
        if p.degree < 2:
            raise DomainError("mean value quantities need degree >= 2")
        self.dp = derivative(p)
        self._critical_scale = CRITICAL_TOL * self.dp.coeff_scale
        self._lead, self._tail = p.coeffs[-1], p.coeffs[-2:0:-1]  # a_n; a_(n-1) .. a_1
        # the root finder rejects non-finite critical points in either form,
        # so they need no finiteness check here
        self.criticals = critical_points(p).roots
        self._last = (_NO_POINT, None)

    def deflate(self, z: Scalar) -> tuple[complex, float, list[complex]]:
        """(complex z, |P'(z)|, B's coefficients below its leading a_n, highest
        first); DomainError for a non-finite z or an overflowing |z|^(n-1)
        or |P'(z)|, PreconditionError at a critical point of P.  Each b_i
        also feeds Horner's rule for B(z) = P'(z) in the same loop, with
        the operations of ``quotient_moduli`` in the same order."""
        c = require_finite(z, "evaluation point")
        try:
            zpow = max(1.0, abs(c)) ** self.dp.degree
        except OverflowError:
            raise DomainError(f"|z|^{self.dp.degree} overflows at z = {c!r}") from None
        acc = q = self._lead
        tail = []
        for a in self._tail:
            acc = acc * c + a
            q = q * c + acc
            tail.append(acc)
        try:
            dabs = abs(q)
        except OverflowError:
            raise DomainError(f"|P'(z)| overflows at z = {c!r}") from None
        if dabs <= self._critical_scale * zpow:
            raise PreconditionError(f"z = {c!r} is a critical point of p")
        return c, dabs, tail

    def scan(self, z: Scalar) -> tuple[float, tuple[float, ...]]:
        """|P'(z)| and the quotient at every critical point, in root order."""
        last = self._last
        if last[0] is z:
            return last[1]
        c, dabs, tail = self.deflate(z)
        # |z - w| <= COINCIDENCE_TOL * max(1, |z|, |w|), one side at a time
        near = COINCIDENCE_TOL * max(1.0, abs(c))
        for w in self.criticals:
            d = abs(c - w)
            if d <= near or d <= COINCIDENCE_TOL * abs(w):
                raise PreconditionError(f"points coincide: z = {c!r}, w = {w!r}")
        result = (dabs, tuple(quotient_moduli(self._lead, tail, self.criticals)))
        self._last = (z, result)
        return result

    def extreme(
        self, dabs: float, quotients: tuple[float, ...], smallest: bool
    ) -> QuotientWitness:
        """Witness with the smallest (or largest) of the quotients ``scan``
        returned with ``dabs``; ties go to the first in root order."""
        q = min(quotients) if smallest else max(quotients)
        i = quotients.index(q)
        return QuotientWitness(self.criticals[i], q, q * (1.0 / dabs))


_kernel = lru_cache(maxsize=1)(_QuotientKernel)


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


def quotient_moduli(lead, tail, points) -> list[float]:
    """|B(w)| at each point w by Horner's rule; B has leading coefficient
    ``lead``, then ``tail``, highest first.  Dividing P by (x - z) gives B
    with |B(w)| = |P(z) - P(w)| / |z - w|; for P(0) = 0 and z = 0, tail is
    a_(n-1) .. a_1 and |B(w)| = |P(w) / w|, |a_1| at w = 0.  The points are
    the caller's to check."""
    out = []
    for w in points:
        q = lead
        for b in tail:
            q = q * w + b
        out.append(abs(q))
    return out


def _normalized_witnesses(p: Poly) -> list[QuotientWitness]:
    kernel = _kernel(p)
    if not is_normalized(p):
        raise PreconditionError("p must satisfy p(0) = 0 and p'(0) = 1")
    for w in kernel.criticals:
        if abs(w) <= COINCIDENCE_TOL:
            raise PreconditionError(f"critical point {w!r} coincides with 0")
    dabs = abs(p.coeffs[1])
    quotients = quotient_moduli(kernel._lead, kernel._tail, kernel.criticals)
    return [QuotientWitness(w, q, q / dabs) for w, q in zip(kernel.criticals, quotients)]


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
        for _attempt in range(256):
            cand = stream.complex_in_disk(radius)
            for w in criticals:
                if abs(cand - w) <= SAMPLER_MARGIN:
                    break
            else:
                if abs(evaluate(dp, cand)) > floor * max(1.0, abs(cand)) ** dp.degree:
                    pts.append(cand)
                    break
    if not pts:
        raise PreconditionError("sampler could not find any admissible point")
    return pts


def _refined(kernel: _QuotientKernel, scored, sampler: SampleConfig):
    """Best sampled (value, z, witness) of the minimized quotient, then
    simplex refinement of its ratio surface from the top starts.

    ``scored`` holds (ratio, z, |P'(z)|, quotients) best first; only the
    winner's witness is built.  A refined point wins only when strictly
    larger, so ties keep the sampled point, then the earliest start.
    """
    # imported on first use: callers that never refine skip its load time
    from .simplex import nelder_mead

    def objective(xy):
        try:
            dabs, qs = kernel.scan(complex(xy[0], xy[1]))
        except (PreconditionError, DomainError):
            return math.inf
        return -(min(qs) * (1.0 / dabs))

    best_val, best_z, dabs, qs = scored[0]
    refined_z = None
    for _, z0, _, _ in scored[: sampler.refine_starts]:
        res = nelder_mead(
            objective,
            [z0.real, z0.imag],
            maxiter=sampler.refine_max_iter,
            xatol=1e-10,
            fatol=1e-12,
        )
        val = -res.fun
        if math.isfinite(val) and val > best_val:
            best_val = val
            refined_z = complex(res.x[0], res.x[1])
    if refined_z is not None:
        best_z = refined_z
        dabs, qs = kernel.scan(refined_z)
    return best_val, best_z, kernel.extreme(dabs, qs, True)


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
    for z in pts:
        dval, qs = kernel.scan(z)
        # the ratios kernel.extreme gives; witnesses are built for winners only
        s_scored.append((min(qs) * (1.0 / dval), z, dval, qs))
        ds_scored.append((max(qs) * (1.0 / dval), z, dval, qs))
        # the higher-order theorem is an exists-a-witness statement; the
        # quantity grows with |P(z) - P(w)|, so the critical point with the
        # nearest critical VALUE realizes it (the quotient minimizer does
        # not: it can overshoot the bound)
        diff = min(q * abs(z - w) for w, q in zip(kernel.criticals, qs))
        taylor = taylor_coefficients(p, z)  # P^(k)(z) / k!
        for k in range(2, n + 1):
            # one power of the ratio: diff^(k-1) / dval^k overflows at high degree
            high_max[k] = max(
                high_max[k], abs(taylor[k]) * (diff / dval) ** (k - 1) / dval
            )

    s_scored.sort(key=lambda item: item[0], reverse=True)
    s_best, s_z, s_wit = _refined(kernel, s_scored, sampler)
    ds_best, ds_z, ds_dval, ds_qs = min(ds_scored, key=lambda item: item[0])
    if 1.0 / n < ds_best:
        ds_best, ds_z = 1.0 / n, None  # the limit as |z| -> infinity
        witnesses = (s_wit,)
    else:
        witnesses = (s_wit, kernel.extreme(ds_dval, ds_qs, False))

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
        witnesses=witnesses,
        bound_checks=tuple(checks),
        s_argmax_z=s_z,
        ds_argmin_z=ds_z,
    )

