"""Extremal search over normalized polynomials and conjecture hunting.

The extremal searches parametrize a normalized polynomial by its critical
points c_1 .. c_{n-1}: the derivative is prod (1 - z/c_j), which fixes
P'(0) = 1, and integrating with P(0) = 0 fixes the rest.  Moduli live in
log-radial coordinates with bound constraints, so the optimizer cannot
drive a critical point to 0 or infinity, and a collision guard keeps the
objective defined.  The objective is a min (or max) over branches, hence
not smooth at witness switches; a derivative-free simplex with many seeded
restarts is used instead of gradients.  The objective runs on the plain
coefficient list of the decoded polynomial, with no Poly per simplex
vertex; the reported best polynomial is the one Poly a search builds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

from .cstar import (
    CStarElement,
    CStarPoly,
    check_strong_forms,
    cstar_derivative_eval,
    enumerate_critical_set,
)
from .dynamics import OrbitConfig, OrbitResult, mlp_check
from .errors import DomainError, PreconditionError, SmaleLabError
from .fanout import fan_out
from .polycore import (
    Poly,
    from_coeffs,
    monic_coeffs,
    poly_to_json,
    require_finite,
)
from .rng import Stream
from .rootfind import critical_points
from .smale import CONJ_SLACK, SAMPLER_MARGIN, quotient_moduli
from .verify import Certificate, confirm_normalized, exact_cstar_quotients

_STREAM_SEARCH = 23
_STREAM_HUNT = 29
_STREAM_MLP = 31

_ROOT_DRAW_RADIUS = 2.0

# simplex iterations per restart, critical-point moduli in [1e-2, 1e2],
# and the distance at which two critical points collide (objective inf)
_MAX_ITER = 800
_LOG_RADIUS_BOUNDS = (math.log(1e-2), math.log(1e2))
_COLLISION_TOL = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 64
    seed: int = 42

    def __post_init__(self):
        if self.restarts < 1:
            raise DomainError(f"restarts must be at least 1: {self}")


@dataclass(frozen=True)
class RestartRecord:
    index: int
    objective: float
    best_so_far: float


@dataclass(frozen=True)
class SearchState:
    params: tuple[float, ...]
    objective: float
    best_poly: Poly
    restarts_done: int
    table: tuple[RestartRecord, ...]


def critical_points_from_params(params) -> list[complex]:
    """Decode (log r, angle) pairs into critical points."""
    exp, cos, sin = math.exp, math.cos, math.sin
    it = iter(params)
    return [complex((r := exp(lr)) * cos(t), r * sin(t)) for lr, t in zip(it, it)]


def _normalized_coeffs(cs) -> list[complex]:
    """Coefficients a_1 .. a_n of the normalized polynomial whose critical
    points are exactly cs.  A zero (or underflowed) product of the cs, a
    non-finite coefficient (which a non-finite point makes) and a zero
    leading coefficient raise DomainError, the last two with Poly's messages.

    The derivative is q(z) = prod (z - c_j) divided by q(0), so P'(0) is
    exactly 1.0, and integrating with P(0) = 0 gives the coefficients
    (1, (q_1/q_0)/2, (q_2/q_0)/3, ...) with no rounding residue.
    """
    q0, *rest = monic_coeffs(cs)
    if q0 == 0:
        raise DomainError("critical points must be nonzero: their product is 0")
    coeffs = [1.0 + 0.0j, *[c / q0 / k for k, c in enumerate(rest, 2)]]
    # a non-finite coefficient makes the sum non-finite; the loop names it
    if not cmath.isfinite(sum(coeffs)):
        for a in coeffs:
            require_finite(a, "coefficient")
    if abs(coeffs[-1]) == 0.0:
        raise DomainError("leading coefficient must be nonzero")
    return coeffs


def poly_from_critical_points(cs) -> Poly:
    """The normalized polynomial whose critical points are exactly cs."""
    return Poly((0.0 + 0.0j, *_normalized_coeffs(cs)))


def _search(n: int, cfg: SearchConfig, maximize: bool) -> SearchState:
    """Seeded simplex restarts over the 2(n-1) critical-point parameters.

    Each objective call is one pass: decode, the collision loop, the one
    normalization, one ``quotient_moduli`` pass, and only the extreme its
    direction needs (-min for s0, max for ds0).  Restarts fan out to
    worker processes; the table is built from their results in restart
    order.
    """
    # imported on first use: callers that never search skip its load time
    from .simplex import nelder_mead

    if not 2 <= n <= 12:
        raise DomainError(f"search supports degrees 2..12, got {n}")
    m = n - 1
    bounds = [_LOG_RADIUS_BOUNDS, (-math.inf, math.inf)] * m
    sign = -1.0 if maximize else 1.0

    def objective(x) -> float:
        cs = critical_points_from_params(x)
        for c, d in combinations(cs, 2):
            if abs(c - d) < _COLLISION_TOL:
                return math.inf
        coeffs = _normalized_coeffs(cs)
        vals = quotient_moduli(coeffs[-1], coeffs[-2::-1], cs)
        return -min(vals) if maximize else max(vals)

    stream = Stream(cfg.seed, _STREAM_SEARCH).derive(n).derive(1 if maximize else 2)

    def restart(r: int) -> tuple[float, list[float]]:
        st = stream.derive(r)
        x0 = []
        for _ in range(m):
            x0.append(st.uniform_in(math.log(0.3), math.log(3.0)))
            x0.append(st.uniform_in(0.0, 2.0 * math.pi))
        res = nelder_mead(
            objective,
            x0,
            maxiter=_MAX_ITER,
            xatol=1e-9,
            fatol=1e-11,
            bounds=bounds,
        )
        return sign * res.fun, list(res.x)

    best_val: float | None = None
    best_x: list[float] | None = None
    table = []
    for r, (val, x) in enumerate(fan_out(restart, cfg.restarts)):
        better = best_val is None or (val > best_val if maximize else val < best_val)
        if math.isfinite(val) and better:
            best_val = val
            best_x = x
        if best_val is None:
            # every table row records a finite best so far
            break
        table.append(RestartRecord(r, val, best_val))

    if best_x is None:
        raise PreconditionError("no restart reached a finite objective")
    cs = critical_points_from_params(best_x)
    return SearchState(
        params=tuple(best_x),
        objective=best_val,
        best_poly=poly_from_critical_points(cs),
        restarts_done=cfg.restarts,
        table=tuple(table),
    )


def search_extremal_s0(n: int, cfg: SearchConfig = SearchConfig()) -> SearchState:
    """Maximize the minimized normalized quotient over degree-n polynomials."""
    return _search(n, cfg, maximize=True)


def search_extremal_ds0(n: int, cfg: SearchConfig = SearchConfig()) -> SearchState:
    """Minimize the maximized normalized quotient over degree-n polynomials."""
    return _search(n, cfg, maximize=False)


def extremal_family(n: int) -> Poly:
    """z - z^n / n: every critical value ratio equals (n-1)/n."""
    if n < 2:
        raise DomainError("family needs degree >= 2")
    coeffs = [0.0 + 0.0j] * (n + 1)
    coeffs[1] = 1.0 + 0.0j
    coeffs[n] = -1.0 / n
    return from_coeffs(coeffs)


@dataclass(frozen=True)
class HuntStats:
    trials_run: int
    trials_skipped: int
    worst_min_ratio: float
    best_min_ratio: float
    worst_max_ratio: float
    sharp_margin: float
    dual_margin: float


@dataclass(frozen=True)
class HuntResult:
    certificates: tuple[Certificate, ...]
    stats: HuntStats


# each hunt certificate kind with its CStarVerdict pass field and the
# exact re-check's violated field; the strong forms are the last two
_CSTAR_KINDS = (
    ("cstar_sharp", "sharp_pass", "sharp_violated"),
    ("cstar_dual", "dual_pass", "dual_violated"),
    ("cstar_strong_smale", "strong_smale_pass", "strong_smale_violated"),
    ("cstar_strong_dual", "strong_dual_pass", "strong_dual_violated"),
)


def _draw_cstar_instance(st: Stream, n: int, k: int):
    roots = tuple(
        CStarElement(tuple(st.complex_in_disk(_ROOT_DRAW_RADIUS) for _ in range(k)))
        for _ in range(n)
    )
    P = CStarPoly(roots)
    crit = enumerate_critical_set(P)
    radius = 2.0 * (
        1.0 + max(abs(c) for r in roots for c in r.coords)
    )
    coords = []
    for t in range(k):
        pool = crit.per_coordinate[t].roots
        for _attempt in range(256):
            cand = st.complex_in_disk(radius)
            if all(abs(cand - w) > SAMPLER_MARGIN for w in pool):
                coords.append(cand)
                break
        else:
            return P, crit, None
    z = CStarElement(tuple(coords))
    if cstar_derivative_eval(P, z).norm() <= P.critical_threshold:
        return P, crit, None
    return P, crit, z


def _hunt_trial(stream: Stream, trial: int, n: int, k: int, strong: bool, seed: int):
    """One hunt trial; pure function of its arguments.  None (a skipped
    trial) means the draw found no admissible z; errors, root-find failures
    included, propagate."""
    st = stream.derive(trial)
    P, crit, z = _draw_cstar_instance(st, n, k)
    if z is None:
        return None
    verdict = check_strong_forms(P, z, crit)
    # the operator-order form implies the norm form (take norms); allow a
    # bridge between the relative and absolute comparison slacks
    if verdict.strong_smale_pass and verdict.min_ratio > (n - 1) / n + 1e-7:
        raise SmaleLabError("strong form passed but norm form failed: comparison bug")
    kinds = _CSTAR_KINDS if strong else _CSTAR_KINDS[:2]
    flagged = [(kind, exact_field) for kind, field, exact_field in kinds
               if not getattr(verdict, field)]
    certs = []
    if flagged:
        exact = exact_cstar_quotients(
            [list(r.coords) for r in P.roots],
            list(z.coords),
            [rs.roots for rs in crit.per_coordinate],
        )
        residuals = [
            max(rs.residuals) if rs.residuals else 0.0
            for rs in crit.per_coordinate
        ]
        for kind, exact_field in flagged:
            if getattr(exact, exact_field):
                certs.append(
                    Certificate(
                        kind=kind,
                        degree=n,
                        dim=k,
                        trial=trial,
                        seed=seed,
                        confirmed=True,
                        data={
                            "poly": P.to_json(),
                            "z": z.to_json(),
                            "min_ratio": verdict.min_ratio,
                            "max_ratio": verdict.max_ratio,
                            "exact_min_ratio_sq": float(exact.min_ratio2),
                            "exact_max_ratio_sq": float(exact.max_ratio2),
                            "critical_residual_worst": max(residuals),
                            "float_slack": CONJ_SLACK,
                        },
                    )
                )
    return verdict.min_ratio, verdict.max_ratio, certs


def run_hunt(
    n: int,
    k: int,
    trials: int,
    cfg: SearchConfig = SearchConfig(),
    strong: bool = True,
    jobs: int = 1,
) -> HuntResult:
    """Randomized conjecture sweep over algebra polynomials.

    Every trial decides over its whole critical set (cstar.product_extremes),
    so each verdict is exact up to root residuals; candidates failing a
    conjectured inequality are re-decided in exact rational arithmetic
    before being reported.  An empty certificate list is the expected
    outcome.  Trials are independent: with jobs > 1 they fan out to that
    many worker processes, and results are merged in trial order, so the
    report does not depend on the worker count.  A trial is skipped only when its draw
    finds no admissible z (one at least SAMPLER_MARGIN from every
    coordinate critical point and not itself critical by
    CStarPoly.critical_threshold, the rule check_strong_forms applies); an
    error in any trial, a root-find failure included, is raised, never
    skipped.
    """
    if n < 2 or k < 1:
        raise DomainError(f"hunts need degree >= 2 and dim >= 1, got {n} and {k}")
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    stream = Stream(cfg.seed, _STREAM_HUNT).derive(n).derive(k)
    results = fan_out(
        lambda t: _hunt_trial(stream, t, n, k, strong, cfg.seed), trials, workers=jobs
    )

    certificates: list[Certificate] = []
    skipped = 0
    run = 0
    worst_min = 0.0
    best_min = math.inf
    worst_max = math.inf
    for item in results:
        if item is None:
            skipped += 1
            continue
        run += 1
        min_ratio, max_ratio, certs = item
        worst_min = max(worst_min, min_ratio)
        best_min = min(best_min, min_ratio)
        worst_max = min(worst_max, max_ratio)
        certificates.extend(certs)
    stats = HuntStats(
        trials_run=run,
        trials_skipped=skipped,
        worst_min_ratio=worst_min,
        best_min_ratio=best_min if run else 0.0,
        worst_max_ratio=worst_max if run else 0.0,
        sharp_margin=(n - 1) / n - worst_min,
        dual_margin=(worst_max if run else 0.0) - 1.0 / n,
    )
    return HuntResult(tuple(certificates), stats)


def random_normalized_poly(degree: int, st: Stream) -> Poly:
    """z + a_2 z^2 + ... + a_n z^n with coefficients in the radius-2 disk."""
    if degree < 2:
        raise DomainError("normalized draws need degree >= 2")
    while True:
        coeffs = [0.0 + 0.0j, 1.0 + 0.0j]
        coeffs.extend(st.complex_in_disk(2.0) for _ in range(degree - 1))
        if abs(coeffs[-1]) > 1e-6:
            return from_coeffs(coeffs)


def mlp_certificate(p: Poly, res: OrbitResult, trial: int, seed: int) -> Certificate:
    """The mlp certificate for a polynomial whose mlp_check found no witness;
    res is the OrbitResult that check returned."""
    ratio_sq, confirmed = confirm_normalized(
        "mlp", p.coeffs, critical_points(p).roots, bound=1.0
    )
    return Certificate(
        kind="mlp",
        degree=p.degree,
        dim=1,
        trial=trial,
        seed=seed,
        confirmed=confirmed,  # exact only for the ratio half
        data={
            "poly": poly_to_json(p),
            "witness": [res.w0.real, res.w0.imag],
            "ratio": res.ratio,
            "verdict": res.verdict,
            "trajectory_len": res.trajectory_len,
            "final_modulus": res.final_modulus,
            "exact_min_ratio_sq": ratio_sq,
        },
    )


def hunt_mlp(
    degree: int,
    trials: int,
    seed: int = 42,
    cfg: OrbitConfig = OrbitConfig(),
) -> tuple[list[Certificate], int]:
    """Dynamics sweep; returns (certificates, number of passing trials).
    Trials fan out to worker processes and merge in trial order."""
    if degree < 2:
        raise DomainError("normalized draws need degree >= 2")
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    stream = Stream(seed, _STREAM_MLP).derive(degree)

    def trial(t: int) -> Certificate | None:
        p = random_normalized_poly(degree, stream.derive(t))
        ok, res = mlp_check(p, cfg)
        return None if ok else mlp_certificate(p, res, t, seed)

    outcomes = fan_out(trial, trials)
    return [c for c in outcomes if c is not None], outcomes.count(None)
