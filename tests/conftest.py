import cmath

from hypothesis import HealthCheck, settings

from smale_lab.errors import DomainError
from smale_lab.polycore import Poly, require_finite
from smale_lab.rng import Stream

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def convolve_oracle(roots):
    """Independent expansion of prod (z - r): naive index-sum convolution.

    Deliberately written differently from the library (explicit double
    loop over term indices) so the two can cross-check each other.
    """
    coeffs = [1.0 + 0.0j]
    for r in roots:
        factor = [-r, 1.0 + 0.0j]
        out = [0.0 + 0.0j] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    return coeffs


def horner_oracle(coeffs, z):
    """Plain power-sum evaluation, independent of the library's Horner."""
    return sum(c * z ** i for i, c in enumerate(coeffs))


def random_roots(stream: Stream, degree: int, radius: float = 4.0, min_sep: float = 1e-3):
    """Seeded well-separated root sets for roundtrip tests."""
    while True:
        roots = [stream.complex_in_disk(radius) for _ in range(degree)]
        ok = True
        for i in range(degree):
            for j in range(i + 1, degree):
                if abs(roots[i] - roots[j]) < min_sep:
                    ok = False
        if ok:
            return roots


def match_multisets(found, expected, tol):
    """Greedy closest-pair matching; returns the worst pairing distance."""
    pool = list(expected)
    worst = 0.0
    for f in found:
        best_i = min(range(len(pool)), key=lambda i: abs(pool[i] - f))
        worst = max(worst, abs(pool[best_i] - f))
        pool.pop(best_i)
    assert not pool
    return worst


def polar(r, theta):
    return r * cmath.exp(1j * theta)


def scale_conjugate(p: Poly, lam: complex) -> Poly:
    """P_lam(z) = P(lam * z) / lam; preserves normalization for lam != 0."""
    lam = require_finite(lam, "scale factor")
    if lam == 0:
        raise DomainError("scale factor must be nonzero")
    coeffs = tuple(c * lam ** (i - 1) for i, c in enumerate(p.coeffs))
    return Poly(coeffs)
