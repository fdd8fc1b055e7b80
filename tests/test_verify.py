from fractions import Fraction

import pytest

from smale_lab.errors import DomainError, PreconditionError
from smale_lab.verify import (
    Certificate,
    XC,
    confirm_normalized,
    exact_cstar_quotients,
    exact_normalized_ratios,
)


class TestExactComplex:
    def test_multiplication(self):
        a = XC.of(1 + 2j)
        b = XC.of(3 - 1j)
        prod = a * b
        assert prod.re == Fraction(5)
        assert prod.im == Fraction(5)

    def test_abs2_is_exact(self):
        z = XC.of(0.1 + 0.2j)
        # floats 0.1 and 0.2 are exact rationals; abs2 must use them verbatim
        assert z.abs2() == Fraction(0.1) ** 2 + Fraction(0.2) ** 2


class TestExactQuotients:
    def test_degree2_with_dyadic_inputs_is_exactly_quarter_squared(self):
        # dyadic inputs make the midpoint exact, so the squared ratio is
        # exactly 1/4 and no violation can be reported
        a = [0.5 + 0.25j, -0.75 + 0.5j]
        b = [0.25 - 0.75j, 0.5 + 1.25j]
        z = [2.0 + 1.5j, -1.25 + 0.5j]
        c = [(x + y) / 2 for x, y in zip(a, b)]
        res = exact_cstar_quotients([a, b], z, [tuple(c)])
        assert res.min_ratio2 == Fraction(1, 4)
        assert res.max_ratio2 == Fraction(1, 4)
        assert not res.sharp_violated
        assert not res.dual_violated
        assert not res.strong_smale_violated
        assert not res.strong_dual_violated

    def test_fake_witness_triggers_sharp_violation(self):
        # a deliberately wrong critical point far from the midpoint gives a
        # quotient above the sharp constant, and the exact check says so
        a = [0.0 + 0.0j]
        b = [2.0 + 0.0j]
        z = [5.0 + 0.0j]
        fake = [(100.0 + 0.0j,)]
        res = exact_cstar_quotients([a, b], z, fake)
        assert res.sharp_violated
        assert res.strong_smale_violated

    def test_dual_violation_detected(self):
        # a witness whose quotient is far below ||P'(z)|| / n
        a = [0.0 + 0.0j]
        b = [2.0 + 0.0j]
        z = [1.0 + 1e-6j]  # near the midpoint: P(z) - P(c) tiny
        res = exact_cstar_quotients([a, b], z, [(1.0 + 0.0j,)])
        # |P(z)-P(c)|/|z-c| = |z-c| = 1e-6, |P'(z)| = 2e-6: ratio 1/2 exactly
        assert res.min_ratio2 == Fraction(1, 4)
        assert not res.dual_violated

    def test_min_max_over_witness_set(self):
        # P(z) - P(w) = (z - w)(z + w - 2) for this quadratic, so w = 1
        # gives ratio 1/2 and w = -1 gives ratio |5 - 1 - 2| / 8 = 1/4
        a = [0.0 + 0.0j]
        b = [2.0 + 0.0j]
        z = [5.0 + 0.0j]
        res = exact_cstar_quotients([a, b], z, [(1.0 + 0.0j,), (-1.0 + 0.0j,)])
        assert res.min_ratio2 == Fraction(1, 16)
        assert res.max_ratio2 == Fraction(1, 4)


class TestExactNormalizedRatios:
    def test_quadratic(self):
        # z - z^2/2 at w = 1: |P(w)/w|^2 = 1/4 exactly (dyadic coefficients)
        lo, hi = exact_normalized_ratios([0j, 1 + 0j, -0.5 + 0j], [1.0 + 0j])
        assert lo == Fraction(1, 4)
        assert hi == Fraction(1, 4)

    def test_orders_min_and_max(self):
        # P(4) = 4 - 8 = -4, so |P(4)/4|^2 = 1 exactly
        lo, hi = exact_normalized_ratios(
            [0j, 1 + 0j, -0.5 + 0j], [1.0 + 0j, 4.0 + 0j]
        )
        assert lo == Fraction(1, 4)
        assert hi == Fraction(1)

    def test_empty_witnesses_disallowed(self):
        with pytest.raises(PreconditionError):
            exact_normalized_ratios([0j, 1 + 0j, -0.5 + 0j], [])
        with pytest.raises(PreconditionError):
            exact_cstar_quotients([[1 + 0j], [-1 + 0j]], [2 + 0j], [])


class TestConfirmNormalized:
    # z - z^3/3: critical points +-1, where |P(w)/w| = 2/3
    COEFFS = [0j, 1 + 0j, 0j, -1 / 3 + 0j]
    WITNESSES = [1 + 0j, -1 + 0j]

    def confirm(self, kind, bound):
        return confirm_normalized(kind, self.COEFFS, self.WITNESSES, bound)

    def test_s0_sharp_beyond_the_slack_is_confirmed(self):
        ratio_sq, confirmed = self.confirm("s0_sharp", 0.66)
        assert ratio_sq == pytest.approx(4 / 9, abs=1e-15)
        assert confirmed

    def test_s0_sharp_inside_the_slack_is_not_confirmed(self):
        bound = 2 / 3 - 1e-10
        ratio_sq, confirmed = self.confirm("s0_sharp", bound)
        # bound lies within TIGHT_SLACK of 2/3; a float comparison without
        # the slack would confirm it
        assert ratio_sq > bound ** 2
        assert not confirmed

    def test_ds0_dual_beyond_the_slack_is_confirmed(self):
        ratio_sq, confirmed = self.confirm("ds0_dual", 0.67)
        assert ratio_sq == pytest.approx(4 / 9, abs=1e-15)
        assert confirmed

    def test_ds0_dual_inside_the_slack_is_not_confirmed(self):
        bound = 2 / 3 + 1e-10
        ratio_sq, confirmed = self.confirm("ds0_dual", bound)
        assert ratio_sq < bound ** 2
        assert not confirmed

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            self.confirm("cstar_dual", 0.5)


class TestCertificate:
    def test_json_shape(self):
        cert = Certificate(
            kind="cstar_dual",
            degree=3,
            dim=2,
            trial=17,
            seed=42,
            confirmed=True,
            data={"min_ratio": 0.9},
        )
        obj = cert.to_json()
        assert obj["kind"] == "cstar_dual"
        assert obj["confirmed"] is True
        assert obj["data"]["min_ratio"] == 0.9
