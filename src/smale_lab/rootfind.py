"""Simultaneous root finding for coefficient-form polynomials.

Aberth-Ehrlich iteration from a circle of initial guesses, followed by a
short Newton polish and residual-checked clustering into multiplicities.
No linear algebra dependency; behaves well for the moderate degrees and
clustered critical points this package works with.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, RootFindError
from .polycore import Poly, cauchy_root_bound, derivative, evaluate, root_residual_bounds

# Phase offset (radians) of the initial guesses; irrational so the start
# configuration never aligns with a symmetry axis of the root set.
_INIT_PHASE = 0.37

_LEAD_MIN = 1e-30

_POLISH_STEPS = 5  # Newton steps per root, each kept only if it lowers |p|


@dataclass(frozen=True)
class RootFindConfig:
    step_tol: float = 1e-14
    max_iters: int = 200
    cluster_tol: float | None = None  # None: 1e-7 * Cauchy bound


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


def _horner_pair(coeffs, z):
    """(p(z), p'(z)) in one descending pass."""
    acc = 0.0 + 0.0j
    dacc = 0.0 + 0.0j
    for c in reversed(coeffs):
        dacc = dacc * z + acc
        acc = acc * z + c
    return acc, dacc


def _aberth_sweeps(monic, guesses, cfg, radius):
    zs = list(guesses)
    n = len(zs)
    for _ in range(cfg.max_iters):
        max_step = 0.0
        for j in range(n):
            z = zs[j]
            val, dval = _horner_pair(monic, z)
            if val == 0:
                continue
            if dval == 0:
                # sitting on a stationary point: nudge deterministically
                zs[j] = z + radius * 1e-9 * cmath.exp(1j * (j + 1))
                max_step = max(max_step, 1.0)
                continue
            newton = val / dval
            repulse = 0.0 + 0.0j
            for i in range(n):
                if i != j:
                    diff = z - zs[i]
                    if diff == 0:
                        diff = complex(radius * 1e-14, 0.0)
                    repulse += 1.0 / diff
            denom = 1.0 - newton * repulse
            step = newton if denom == 0 else newton / denom
            zs[j] = z - step
            rel = abs(step) / (1.0 + abs(zs[j]))
            if rel > max_step:
                max_step = rel
        if max_step <= cfg.step_tol:
            break
    return zs


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
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= tol:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[rb] = ra
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    return list(groups.values())


def find_roots(p: Poly, cfg: RootFindConfig = RootFindConfig()) -> RootSet:
    """All roots of p, clustered into multiplicities.

    Raises RootFindError (with the best iterates and residuals attached)
    if the iteration stalls and the stalled points are not acceptable
    roots by the residual criterion.
    """
    n = p.degree
    if n < 1:
        raise DomainError("find_roots needs degree >= 1")
    lead = p.coeffs[-1]
    if abs(lead) <= _LEAD_MIN:
        raise DomainError(f"leading coefficient too small: |a_n| = {abs(lead):.3e}")

    monic = tuple(c / lead for c in p.coeffs)
    radius = cauchy_root_bound(p)

    if n == 1:
        root = -monic[0]
        return RootSet((root,), (1,), (abs(evaluate(p, root)),))

    two_pi = 2.0 * 3.141592653589793
    guesses = [
        radius * cmath.exp(1j * (two_pi * j / n + _INIT_PHASE)) for j in range(n)
    ]
    zs = _aberth_sweeps(monic, guesses, cfg, radius)
    zs = [_polish(p.coeffs, z) for z in zs]

    tol = cfg.cluster_tol if cfg.cluster_tol is not None else 1e-7 * radius
    clusters = _cluster(zs, tol)

    reps = []
    for members in clusters:
        mean = sum(members) / len(members)
        reps.append((mean, len(members)))
    reps.sort(key=lambda item: (item[0].real, item[0].imag))

    roots = tuple(r for r, _ in reps)
    mults = tuple(m for _, m in reps)
    residuals = tuple(abs(evaluate(p, r)) for r in roots)

    for r, res, bound in zip(roots, residuals, root_residual_bounds(p, roots)):
        if res > bound:
            raise RootFindError(
                f"root iteration did not converge within {cfg.max_iters} sweeps "
                f"(residual {res:.3e} > {bound:.3e} at |r| = {abs(r):.3e})",
                roots=roots,
                residuals=residuals,
            )
    return RootSet(roots, mults, residuals)


def critical_points(p: Poly, cfg: RootFindConfig = RootFindConfig()) -> RootSet:
    """Roots of p', counted with multiplicity (degree(p) - 1 in total)."""
    if p.degree < 2:
        raise DomainError("critical points need degree >= 2")
    return find_roots(derivative(p), cfg)


@lru_cache(maxsize=1024)
def cached_critical_points(p: Poly) -> RootSet:
    """critical_points with the default config, memoized on the Poly."""
    return critical_points(p)
