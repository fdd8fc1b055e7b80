"""Critical-orbit dynamics for normalized polynomials, decided by proof.

A normalized P(z) = z + a_2 z^2 + ... + a_n z^n fixes 0 with multiplier 1,
so orbits converge to 0 only algebraically.  Convergence is instead proven
with a Leau-Fatou petal (Milnor, *Dynamics in One Complex Variable*, s. 10;
Carleson & Gamelin, *Complex Dynamics*, s. II.5).  Write P(z) = z +
b z^(m+1) + z^(m+2) g(z) with b = a_(m+1) the first nonzero a_j after a_1,
w = -1/(m b z^m), h = z g(z)/b and t = b z^m (1 + h).  Then -m t w = 1 + h
and F(w) = w (1 + t)^(-m) = w + 1 + h + w R2(t), R2(t) = (1 + t)^(-m) - 1 +
m t.  On |w| = R, |z| = r = (m |b| R)^(-1/m), so |h| <= eta = r C(r)/|b|
with C(r) = sum_{j >= m+2} |a_j| r^(j-m-2), |t| <= tau = (1 + eta)/(m R),
and, as (1 - x)^(-m) has the moduli of the coefficients of (1 + x)^(-m),
|w R2(t)| <= R ((1 - tau)^(-m) - 1 - m tau) when tau < 1.  Both bounds
decrease as |w| grows (the second is (1 + eta)/m times a positive series
in tau), so if eta + R ((1 - tau)^(-m) - 1 - m tau) <= 1/2, the half-plane
Re w >= R is forward-invariant, Re w grows by at least 1/2 per step and
z -> 0.  For m = 1 and c = C(r)/|b|^2 the bound reads
((1 + c)/R + c/R^2)/(1 - 1/R - c/R^2).  The test takes R = Re w at the
float point it is given; growth needs only a bound below 1, so the margin
to 1/2 absorbs float rounding.  It tests z + sum_{j >= 2} a_j z^j, so an
input normalized only within ``is_normalized``'s 1e-10 is tested as that
polynomial.  The identity (every a_j zero) has no petal; 0 is converged.

Escape is proven with S = sum_{j < n} |a_j| and R_esc = max(1, (2 + S)/|a_n|):
every |z| >= R_esc has |P(z)| >= |z|^(n-1) (|a_n| |z| - S) >= 2 |z|.  A
cycle is declared by a Brent comparison confirmed by going once around;
anything else is inconclusive (``max_iters``), never coerced to a verdict.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from .errors import DomainError, PreconditionError
from .polycore import Poly, evaluate, is_normalized
from .rootfind import cached_critical_points
from .smale import CONJ_SLACK

VERDICT_CONVERGED = "converged_to_zero"
VERDICT_ESCAPED = "escaped"
VERDICT_MAX_ITERS = "max_iters"
VERDICT_CYCLED = "cycled"

_CYCLE_TOL = 1e-10  # distance at which Brent's comparison sees a cycle

@dataclass(frozen=True)
class OrbitConfig:
    max_iters: int = 1_000_000

    def __post_init__(self):
        if self.max_iters < 0:
            raise DomainError(f"need max_iters >= 0: {self}")


@dataclass(frozen=True)
class OrbitResult:
    w0: complex
    ratio: float
    trajectory_len: int
    verdict: str
    final_modulus: float


def petal_test(coeffs: Sequence[complex]) -> Callable[[complex], bool]:
    """Predicate: does z lie in a proven attracting petal at 0 of
    z + sum_{j >= 2} coeffs[j] z^j (the bound in the module docstring)?"""
    tail = coeffs[2:]
    m = next((i for i, a in enumerate(tail, start=1) if a != 0), None)
    if m is None:
        return lambda z: z == 0
    b = tail[m - 1]
    higher = [abs(a) for a in reversed(tail[m:])]  # |a_j| for j >= m + 2

    def test(z: complex) -> bool:
        zm = z
        for _ in range(m - 1):
            zm *= z
        d = m * b * zm
        if d == 0:
            return z == 0
        R = (-1 / d).real
        if not m * R > 1:  # tau >= 1/(m R); also rejects NaN
            return False
        r = (m * abs(b) * R) ** (-1.0 / m)
        c = 0.0
        for a in higher:
            c = c * r + a
        eta = r * c / abs(b)
        tau = (1 + eta) / (m * R)
        if not tau < 1:
            return False
        # (1 - tau)^(-m) - 1 - m tau without cancelling the leading 1
        return eta + R * (math.expm1(-m * math.log1p(-tau)) - m * tau) <= 0.5

    return test


def escape_test(coeffs: Sequence[complex]) -> Callable[[complex], bool]:
    """Predicate: is |z| >= R_esc (module docstring), so its orbit escapes?
    S includes |a_0|, so the bound holds for coeffs as given."""
    *lower, lead = coeffs
    if len(lower) < 2:  # degree 1 has no escape radius
        return lambda z: False
    radius = max(1.0, (2.0 + math.fsum(map(abs, lower))) / abs(lead))
    return lambda z: not abs(z) < radius  # NaN from overflow also escaped


def orbit(p: Poly, w0: complex, cfg: OrbitConfig = OrbitConfig()) -> OrbitResult:
    """Iterate z -> p(z) from w0 and classify the trajectory.

    The proven escape and petal tests run at w0 and after every step.  A
    cycle found by Brent's comparison is confirmed by going once around,
    which may run past cfg.max_iters by the cycle's length.
    """
    if not is_normalized(p, 1e-10):
        raise PreconditionError("orbit needs p(0) = 0 and p'(0) = 1 within 1e-10")
    w0 = complex(w0)
    lead, *rest = reversed(p.coeffs)
    escapes, in_petal = escape_test(p.coeffs), petal_test(p.coeffs)
    # at w0 = 0, the limit of |P(w)/w| as w -> 0 under the normalization
    ratio = abs(evaluate(p, w0) / w0) if w0 != 0 else 1.0
    z = saved = anchor = w0
    steps = lam = around = 0  # around > 0: steps left to go once around
    power = 1
    while True:
        if escapes(z):
            verdict = VERDICT_ESCAPED
            break
        if in_petal(z):
            verdict = VERDICT_CONVERGED
            break
        if around:
            around -= 1
            if not around:
                if abs(z - anchor) <= _CYCLE_TOL:
                    verdict = VERDICT_CYCLED
                    break
                saved, power, lam = z, 1, 0
        elif steps:
            lam += 1
            if abs(z - saved) <= _CYCLE_TOL:
                anchor, around = z, lam  # candidate cycle of length lam
            elif lam == power:
                saved, power, lam = z, power << 1, 0
        if not around and steps >= cfg.max_iters:
            verdict = VERDICT_MAX_ITERS
            break
        acc = lead
        for c in rest:
            acc = acc * z + c
        z = acc
        steps += 1
    final_mod = math.inf if cmath.isnan(z) else abs(z)  # NaN: overflow, escaped
    return OrbitResult(w0, ratio, steps, verdict, final_mod)


def mlp_check(p: Poly, cfg: OrbitConfig = OrbitConfig()) -> tuple[bool, OrbitResult]:
    """Does some critical point have ratio <= 1 and an orbit proven to fall to 0?

    Candidates run at budgets of 100, 1000, ... steps up to cfg.max_iters,
    in root-set order at each budget, so a witness proven in a few steps is
    found before another candidate spends the whole budget on a slow cycle.
    A False answer means "no witness found" (an orbit may end inconclusive),
    not "witness refuted"; callers log it as a certificate instead.
    """
    if p.degree < 2:
        raise DomainError("the dynamics check needs degree >= 2")
    if not is_normalized(p, 1e-10):
        raise PreconditionError("mlp_check needs p(0) = 0 and p'(0) = 1")
    crits = cached_critical_points(p).roots
    scored = [(w, abs(evaluate(p, w) / w)) for w in crits]
    candidates = [w for w, ratio in scored if ratio <= 1.0 + CONJ_SLACK]
    last: OrbitResult | None = None
    budget = 100
    while candidates:
        level = replace(cfg, max_iters=min(budget, cfg.max_iters))
        undecided = []
        for w in candidates:
            last = orbit(p, w, level)
            if last.verdict == VERDICT_CONVERGED:
                return True, last
            if last.verdict == VERDICT_MAX_ITERS:
                undecided.append(w)
        if level.max_iters == cfg.max_iters:
            break
        candidates = undecided
        budget *= 10
    if last is None:
        best_w = min(scored, key=lambda item: item[1])[0]
        last = orbit(p, best_w, cfg)
    return False, last
