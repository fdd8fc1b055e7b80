"""Critical-orbit dynamics for normalized polynomials.

A normalized polynomial fixes 0 with multiplier exactly 1, so orbits that
do converge to 0 approach it algebraically (like C/m), not geometrically.
Waiting for |z| to cross a 1e-12 threshold is therefore hopeless inside
any reasonable iteration budget.  The engine instead declares convergence
to zero when the orbit is simultaneously

* small (inside ``near_zero_radius``),
* strictly shrinking in modulus for ``tail_window`` consecutive steps, and
* at least twice as close to 0 as to any other fixed point of the map,

or when it hits ``zero_tol`` outright.  Escape and cycling are decided by
the usual radius test and a confirmed Brent comparison; anything else is
reported as inconclusive (``max_iters``), never coerced to a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, PreconditionError, SmaleLabError
from .polycore import Poly, evaluate, is_normalized
from .rootfind import cached_critical_points, find_roots
from .smale import CONJ_SLACK

VERDICT_CONVERGED = "converged_to_zero"
VERDICT_ESCAPED = "escaped"
VERDICT_MAX_ITERS = "max_iters"
VERDICT_CYCLED = "cycled"

# How many times mlp_check multiplies the iteration budget before giving up
# on an inconclusive orbit.  Four decades cover the slowest admissible
# decay (|z| ~ m^(-1/2) when the quadratic coefficient vanishes).
_ESCALATIONS = 4
_ESCALATION_FACTOR = 10

# Cofactor roots this close to the origin are the origin itself (the fixed
# point at 0 has multiplicity >= 2), not separate fixed points.
_FIXED_POINT_FLOOR = 1e-10


@dataclass(frozen=True)
class OrbitConfig:
    zero_tol: float = 1e-12
    escape_radius: float = 1e6
    max_iters: int = 10_000
    cycle_tol: float = 1e-10
    near_zero_radius: float = 1e-3
    tail_window: int = 32


@dataclass(frozen=True)
class OrbitResult:
    w0: complex
    ratio: float
    trajectory_len: int
    verdict: str
    final_modulus: float


def iterate_orbit(step, norm_of, distance, x0, cfg: OrbitConfig, margin_ok=None):
    """Generic orbit loop shared by the scalar and algebra-valued checks.

    Returns (verdict, steps, final_norm).  ``margin_ok`` is the caller's
    fixed-point separation test used by the soft convergence rule; cycle
    detection is suppressed during long monotone-decreasing runs, which a
    periodic orbit cannot produce but a slow crawl into 0 always does.
    """
    x = x0
    mod = norm_of(x)
    if mod <= cfg.zero_tol:
        return VERDICT_CONVERGED, 0, mod
    steps = 0
    prev = mod
    streak = 0
    saved = x
    power = 1
    lam = 0
    while steps < cfg.max_iters:
        x = step(x)
        steps += 1
        mod = norm_of(x)
        if math.isnan(mod):
            return VERDICT_ESCAPED, steps, math.inf
        if mod <= cfg.zero_tol:
            return VERDICT_CONVERGED, steps, mod
        if mod >= cfg.escape_radius:
            return VERDICT_ESCAPED, steps, mod
        streak = streak + 1 if mod < prev else 0
        prev = mod
        if (
            mod <= cfg.near_zero_radius
            and streak >= cfg.tail_window
            and (margin_ok is None or margin_ok(x))
        ):
            return VERDICT_CONVERGED, steps, mod
        if streak < cfg.tail_window:
            lam += 1
            if distance(x, saved) <= cfg.cycle_tol:
                # candidate cycle of length lam; confirm by going once around
                y = x
                for _ in range(lam):
                    y = step(y)
                    steps += 1
                    ymod = norm_of(y)
                    if math.isnan(ymod):
                        return VERDICT_ESCAPED, steps, math.inf
                    if ymod <= cfg.zero_tol:
                        return VERDICT_CONVERGED, steps, ymod
                    if ymod >= cfg.escape_radius:
                        return VERDICT_ESCAPED, steps, ymod
                if distance(y, x) <= cfg.cycle_tol:
                    return VERDICT_CYCLED, steps, norm_of(y)
                x = y
                mod = norm_of(x)
                prev = mod
                streak = 0
                saved = x
                power = 1
                lam = 0
            elif lam == power:
                saved = x
                power <<= 1
                lam = 0
    return VERDICT_MAX_ITERS, steps, mod


def nonzero_fixed_points(p: Poly) -> tuple[complex, ...]:
    """Fixed points other than 0 of a normalized polynomial.

    P(z) - z factors as z^2 (a_2 + a_3 z + ... + a_n z^(n-2)) up to the
    normalization residue, so the nonzero fixed points are the roots of
    the parenthesized cofactor.
    """
    tail = list(p.coeffs[2:])
    while tail and tail[-1] == 0:
        tail.pop()
    if len(tail) <= 1:
        return ()
    try:
        roots = find_roots(Poly(tuple(tail))).roots
    except SmaleLabError:
        # cofactor too degenerate to solve: fall back to no margin test
        return ()
    return tuple(r for r in roots if abs(r) > _FIXED_POINT_FLOOR)


def orbit(p: Poly, w0: complex, cfg: OrbitConfig = OrbitConfig()) -> OrbitResult:
    """Iterate z -> p(z) from w0 and classify the trajectory."""
    if not is_normalized(p, 1e-10):
        raise PreconditionError("orbit needs p(0) = 0 and p'(0) = 1 within 1e-10")
    w0 = complex(w0)
    rev = tuple(reversed(p.coeffs))

    def step(z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in rev:
            acc = acc * z + c
        return acc

    fps = nonzero_fixed_points(p)

    def margin_ok(z: complex) -> bool:
        az = abs(z)
        for fp in fps:
            if 2.0 * az > abs(z - fp):
                return False
        return True

    if abs(w0) <= cfg.zero_tol:
        ratio = 1.0  # limit of |P(w)/w| as w -> 0 under the normalization
    else:
        ratio = abs(evaluate(p, w0) / w0)
    verdict, steps, final_mod = iterate_orbit(
        step, abs, lambda a, b: abs(a - b), w0, cfg, margin_ok
    )
    return OrbitResult(w0, ratio, steps, verdict, final_mod)


def mlp_check(p: Poly, cfg: OrbitConfig = OrbitConfig()) -> tuple[bool, OrbitResult]:
    """Does some critical point have ratio <= 1 and an orbit falling to 0?

    Witnesses are tried in root-set order; an inconclusive orbit is retried
    with a 10x larger budget a few times before the check gives up.  A
    False answer therefore means "no witness found", not "witness refuted";
    callers log it as a certificate rather than asserting on it.
    """
    if p.degree < 2:
        raise DomainError("the dynamics check needs degree >= 2")
    if not is_normalized(p, 1e-10):
        raise PreconditionError("mlp_check needs p(0) = 0 and p'(0) = 1")
    crits = cached_critical_points(p).roots
    scored = [(w, abs(evaluate(p, w) / w)) for w in crits]
    candidates = [w for w, ratio in scored if ratio <= 1.0 + CONJ_SLACK]
    last: OrbitResult | None = None
    budget = cfg
    for _ in range(_ESCALATIONS):
        inconclusive = []
        for w in candidates:
            res = orbit(p, w, budget)
            last = res
            if res.verdict == VERDICT_CONVERGED:
                return True, res
            if res.verdict == VERDICT_MAX_ITERS:
                inconclusive.append(w)
        if not inconclusive:
            break
        candidates = inconclusive
        budget = replace(budget, max_iters=budget.max_iters * _ESCALATION_FACTOR)
    if last is None:
        best_w = min(scored, key=lambda item: item[1])[0]
        last = orbit(p, best_w, cfg)
    return False, last
