"""Exact re-verification of candidate counterexamples.

Double-precision floats are exact rationals, and every quantity in the
quotient checks is built from +, -, * of the inputs followed by modulus
comparisons.  Squaring both sides turns each inequality into a comparison
of exact rationals, so a candidate violation found by the float pipeline
can be re-decided with no rounding error at all.  Only the critical points
themselves remain approximate (they come from the root finder); their
residuals are recorded on the certificate, and the tightened tolerance
absorbs their effect.

Over C^k the witness set is a product of per-coordinate critical points;
the re-check builds its exact rows once per coordinate and takes the
extremes over the product from them with cstar.product_extremes.

A candidate is promoted to a certificate only when this exact computation
still sees a violation at half the float slack.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .cstar import product_extremes
from .errors import DomainError, PreconditionError

# Half of the float comparison slack (CONJ_SLACK = 1e-9), exactly.
TIGHT_SLACK = Fraction(1, 2 * 10 ** 9)


class XC:
    """Exact complex number over the rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re = re
        self.im = im

    @classmethod
    def of(cls, z: complex) -> "XC":
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other: "XC") -> "XC":
        return XC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "XC") -> "XC":
        return XC(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "XC") -> "XC":
        return XC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def _product(factors: list[XC]) -> XC:
    acc = XC(Fraction(1), Fraction(0))
    for f in factors:
        acc = acc * f
    return acc


def _derivative_sum(factors: list[XC]) -> XC:
    acc = XC(Fraction(0), Fraction(0))
    for j in range(len(factors)):
        term = XC(Fraction(1), Fraction(0))
        for i, f in enumerate(factors):
            if i != j:
                term = term * f
        acc = acc + term
    return acc


@dataclass(frozen=True)
class ExactQuotients:
    """Exact squared ratios for one (P, z) pair over a finite witness set."""

    min_ratio2: Fraction
    max_ratio2: Fraction
    sharp_violated: bool
    dual_violated: bool
    strong_smale_violated: bool
    strong_dual_violated: bool


def exact_cstar_quotients(
    root_coords: list[list[complex]],
    z_coords: list[complex],
    pools: list[Sequence[complex]],
) -> ExactQuotients:
    """Re-decide the quotient inequalities in exact rational arithmetic.

    root_coords is indexed [root][coordinate]; pools[t] holds the critical
    points of coordinate t found by the float pipeline, used verbatim, and
    the witness set is the product of the pools.  As in cstar._check, every
    per-element term depends on one coordinate, so coordinate t gets one
    exact row (|P_t(z_t) - P_t(w_t)|^2, |z_t - w_t|^2) per critical point
    w_t, and a strong form holds for some element exactly when every
    coordinate has a row that satisfies it.
    """
    if len(pools) != len(z_coords) or not all(pools):
        raise PreconditionError("exact re-check needs one non-empty pool per coordinate")
    n = len(root_coords)
    sharp_fac2 = Fraction((n - 1) ** 2, n ** 2)
    dual_fac2 = Fraction(1, n ** 2)

    dp2 = Fraction(0)
    tables = []
    strong_smale = strong_dual = True
    for t, (zt, pool) in enumerate(zip(z_coords, pools)):
        roots = [XC.of(r[t]) for r in root_coords]
        xz = XC.of(zt)
        factors = [xz - a for a in roots]
        pz = _product(factors)
        dz2 = _derivative_sum(factors).abs2()
        dp2 = max(dp2, dz2)
        rows = []
        smale_t = dual_t = False
        for w in pool:
            xw = XC.of(w)
            d2 = (pz - _product([xw - a for a in roots])).abs2()
            gap2 = (xz - xw).abs2()
            rows.append((d2, gap2))
            rhs = gap2 * dz2
            slack = TIGHT_SLACK * max(Fraction(1), d2, rhs)
            smale_t = smale_t or not d2 > sharp_fac2 * rhs + slack
            dual_t = dual_t or not dual_fac2 * rhs > d2 + slack
        tables.append(rows)
        strong_smale = strong_smale and smale_t
        strong_dual = strong_dual and dual_t

    if dp2 == 0:
        raise PreconditionError("P'(z) is zero in every coordinate")
    if all(min(row[1] for row in rows) == 0 for rows in tables):
        raise PreconditionError("z is an element of the witness product")
    min_ratio2, max_ratio2 = product_extremes(tables, dp2)
    return ExactQuotients(
        min_ratio2=min_ratio2,
        max_ratio2=max_ratio2,
        sharp_violated=min_ratio2 > (Fraction(n - 1, n) + TIGHT_SLACK) ** 2,
        dual_violated=max_ratio2 < (Fraction(1, n) - TIGHT_SLACK) ** 2,
        strong_smale_violated=not strong_smale,
        strong_dual_violated=not strong_dual,
    )


def exact_normalized_ratios(
    coeffs: list[complex], witnesses: list[complex]
) -> tuple[Fraction, Fraction]:
    """Exact squared |P(w)/w| extremes for a normalized coefficient poly."""
    if not witnesses:
        raise PreconditionError("exact re-check needs at least one witness")
    cs = [XC.of(c) for c in coeffs]
    lo: Fraction | None = None
    hi: Fraction | None = None
    for w in witnesses:
        xw = XC.of(w)
        acc = XC(Fraction(0), Fraction(0))
        for c in reversed(cs):
            acc = acc * xw + c
        r2 = acc.abs2() / xw.abs2()
        if lo is None or r2 < lo:
            lo = r2
        if hi is None or r2 > hi:
            hi = r2
    return lo, hi


def confirm_normalized(kind: str, coeffs, witnesses, bound) -> tuple[float, bool]:
    """Exact decision behind every normalized certificate.

    ``s0_sharp`` and ``mlp`` claim min |P(w)/w| > bound; ``ds0_dual`` claims
    max |P(w)/w| < bound.  The claim is confirmed when the exact squared
    extreme clears (bound -/+ TIGHT_SLACK)^2, the rule of
    exact_cstar_quotients.  Returns (that squared extreme as a float,
    confirmed).
    """
    lo2, hi2 = exact_normalized_ratios(coeffs, witnesses)
    b = Fraction(bound)
    if kind == "ds0_dual":
        return float(hi2), hi2 < (b - TIGHT_SLACK) ** 2
    if kind in ("s0_sharp", "mlp"):
        return float(lo2), lo2 > (b + TIGHT_SLACK) ** 2
    raise DomainError(f"no normalized certificate kind {kind!r}")


@dataclass(frozen=True)
class Certificate:
    """A fully serialized candidate violation, exact-checked before issue."""

    kind: str
    degree: int
    dim: int
    trial: int
    seed: int
    confirmed: bool
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "degree": self.degree,
            "dim": self.dim,
            "trial": self.trial,
            "seed": self.seed,
            "confirmed": self.confirmed,
            "data": self.data,
        }
