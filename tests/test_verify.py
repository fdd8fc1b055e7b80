import itertools
from fractions import Fraction

import pytest

from conftest import gaussian_int, outcome
from smale_lab import verify
from smale_lab.cstar import CStarElement, CStarPoly, enumerate_critical_set
from smale_lab.errors import DomainError, PreconditionError
from smale_lab.rng import Stream
from smale_lab.verify import (
    Certificate,
    XC,
    confirm_normalized,
    ExactQuotients,
    TIGHT_SLACK,
    exact_cstar_quotients,
    exact_normalized_ratios,
)


def _xprod(factors):
    acc = XC(Fraction(1), Fraction(0))
    for f in factors:
        acc = acc * f
    return acc


def elementwise_exact(root_coords, z_coords, pools):
    """The exact re-check element by element: every term is recomputed
    with XC for each element of the product of the pools."""
    n = len(root_coords)
    k = len(z_coords)
    roots = [[XC.of(c) for c in r] for r in root_coords]
    zs = [XC.of(c) for c in z_coords]
    pz, dz2 = [], []
    for t in range(k):
        factors = [zs[t] - roots[i][t] for i in range(n)]
        pz.append(_xprod(factors))
        deriv = XC(Fraction(0), Fraction(0))
        for j in range(n):
            deriv = deriv + _xprod(factors[:j] + factors[j + 1:])
        dz2.append(deriv.abs2())
    dp2 = max(dz2)
    if dp2 == 0:
        # a multiple root at z in every coordinate: no ratio has a denominator
        raise PreconditionError("P'(z) is zero in every coordinate")
    sharp_fac2 = Fraction((n - 1) ** 2, n ** 2)
    dual_fac2 = Fraction(1, n ** 2)
    ratios = []
    some_smale = some_dual = False
    for w in itertools.product(*pools):
        if w == tuple(z_coords):
            raise PreconditionError("z is an element of the witness product")
        ws = [XC.of(c) for c in w]
        num2 = dist2 = Fraction(0)
        smale_ok = dual_ok = True
        for t in range(k):
            d2 = (pz[t] - _xprod([ws[t] - roots[i][t] for i in range(n)])).abs2()
            gap2 = (zs[t] - ws[t]).abs2()
            num2, dist2 = max(num2, d2), max(dist2, gap2)
            rhs = gap2 * dz2[t]
            slack = TIGHT_SLACK * max(Fraction(1), d2, rhs)
            smale_ok = smale_ok and not d2 > sharp_fac2 * rhs + slack
            dual_ok = dual_ok and not dual_fac2 * rhs > d2 + slack
        some_smale = some_smale or smale_ok
        some_dual = some_dual or dual_ok
        ratios.append(num2 / (dist2 * dp2))
    lo, hi = min(ratios), max(ratios)
    return ExactQuotients(
        min_ratio2=lo,
        max_ratio2=hi,
        sharp_violated=lo > (Fraction(n - 1, n) + TIGHT_SLACK) ** 2,
        dual_violated=hi < (Fraction(1, n) - TIGHT_SLACK) ** 2,
        strong_smale_violated=not some_smale,
        strong_dual_violated=not some_dual,
    )


def _draw(st_, n, k):
    """(root_coords, z_coords, critical pools) of a seeded C^k instance."""
    roots = [[st_.complex_in_disk(2.0) for _ in range(k)] for _ in range(n)]
    z = [st_.complex_in_disk(3.0) for _ in range(k)]
    P = CStarPoly(tuple(CStarElement(tuple(r)) for r in roots))
    pools = [list(rs.roots) for rs in enumerate_critical_set(P).per_coordinate]
    return roots, z, pools


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
        res = exact_cstar_quotients([a, b], z, [[ct] for ct in c])
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
        fake = [[100.0 + 0.0j]]
        res = exact_cstar_quotients([a, b], z, fake)
        assert res.sharp_violated
        assert res.strong_smale_violated

    def test_dual_violation_detected(self):
        # a witness whose quotient is far below ||P'(z)|| / n
        a = [0.0 + 0.0j]
        b = [2.0 + 0.0j]
        z = [1.0 + 1e-6j]  # near the midpoint: P(z) - P(c) tiny
        res = exact_cstar_quotients([a, b], z, [[1.0 + 0.0j]])
        # |P(z)-P(c)|/|z-c| = |z-c| = 1e-6, |P'(z)| = 2e-6: ratio 1/2 exactly
        assert res.min_ratio2 == Fraction(1, 4)
        assert not res.dual_violated

    def test_min_max_over_witness_set(self):
        # P(z) - P(w) = (z - w)(z + w - 2) for this quadratic, so w = 1
        # gives ratio 1/2 and w = -1 gives ratio |5 - 1 - 2| / 8 = 1/4
        a = [0.0 + 0.0j]
        b = [2.0 + 0.0j]
        z = [5.0 + 0.0j]
        res = exact_cstar_quotients([a, b], z, [[1.0 + 0.0j, -1.0 + 0.0j]])
        assert res.min_ratio2 == Fraction(1, 16)
        assert res.max_ratio2 == Fraction(1, 4)

    def test_planted_witness_in_one_coordinate_flips_strong_smale(self):
        # (z - a)(z - b) in each of two coordinates; at the midpoints both
        # strong forms hold with equality.  P(z) - P(w) = (z - w)(z + w - 2)
        # in coordinate 0, so the far-off w = 100 there gives a squared
        # ratio (103 / 8)^2 far above (1/2)^2 in that coordinate alone
        a = [0.0 + 0.0j, 0.5 + 0.25j]
        b = [2.0 + 0.0j, -1.5 + 0.75j]
        z = [5.0 + 0.0j, 2.0 - 1.0j]
        mid = [[(x + y) / 2] for x, y in zip(a, b)]
        assert not exact_cstar_quotients([a, b], z, mid).strong_smale_violated
        for t in range(2):
            pools = [list(pool) for pool in mid]
            pools[t] = [mid[t][0] + 99.0]
            res = exact_cstar_quotients([a, b], z, pools)
            assert res.strong_smale_violated
            assert not res.strong_dual_violated
            assert res == elementwise_exact([a, b], z, pools)

    @pytest.mark.parametrize("roots,z,pools", [
        ([[1 + 0j], [-1 + 0j]], [0j], [[1e-3 + 0j]]),
        ([[1 + 0j, 2 + 0j], [-1 + 0j, 0j]], [0j, 1 + 0j], [[1e-3 + 0j], [1 + 1e-3j]]),
    ])
    def test_critical_z_is_precondition_error(self, roots, z, pools):
        # P'(z) = 0 in every coordinate leaves every ratio a zero
        # denominator, although z is on no element of the pools' product
        with pytest.raises(PreconditionError, match="zero in every coordinate"):
            exact_cstar_quotients(roots, z, pools)

    def test_matches_elementwise_oracle(self):
        # exact rationals do not depend on the order of evaluation, so the
        # per-coordinate rows give == what the element-wise loop gives, and
        # raise PreconditionError exactly when it does.  The witness pools
        # are the critical points; the same moved by up to 3, which makes
        # the strong flags come out True as well as False; the critical
        # points plus z in coordinate 0 only (a zero distance in one row,
        # and no element at z unless k = 1); and Gaussian integers, with
        # Gaussian-integer roots and z, whose rows tie across rows and
        # coordinates and sometimes put z on an element or on a multiple root
        stream = Stream(411)
        flags, outcomes = set(), set()
        # (8, 2), (12, 2) and (20, 1) give the expansion and the divisions
        # long coefficient lists
        for n, k in ((2, 4), (3, 2), (4, 3), (5, 2), (8, 2), (12, 2), (20, 1)):
            for trial in range(4):
                st_ = stream.derive(n).derive(k).derive(trial)
                roots, z, pools = _draw(st_, n, k)
                planted = [[w + st_.complex_in_disk(3.0) for w in pool] for pool in pools]
                on_z = [pools[0] + [z[0]]] + pools[1:]
                for witnesses in (pools, planted, on_z):
                    got = outcome(exact_cstar_quotients, roots, z, witnesses)
                    assert got == outcome(elementwise_exact, roots, z, witnesses)
                    # only on_z at k = 1 puts z on an element
                    assert (got is PreconditionError) == (witnesses is on_z and k == 1)
                    if got is not PreconditionError:
                        flags.add((got.strong_smale_violated, got.strong_dual_violated))
                for _ in range(4):
                    roots = [[gaussian_int(st_) for _ in range(k)] for _ in range(n)]
                    z = [gaussian_int(st_, -1, 1) for _ in range(k)]
                    pools = [
                        [gaussian_int(st_, -1, 1) for _ in range(1 + trial)] for _ in range(k)
                    ]
                    got = outcome(exact_cstar_quotients, roots, z, pools)
                    assert got == outcome(elementwise_exact, roots, z, pools)
                    outcomes.add(got is PreconditionError)
        assert {f[0] for f in flags} == {True, False}
        assert {f[1] for f in flags} == {True, False}
        assert outcomes == {True, False}

    def test_exact_rows_built_once_per_coordinate(self, monkeypatch):
        # per coordinate, one division for B = P_t / (x - z_t), one for
        # B(z_t) = P_t'(z_t) and one per critical point: k * (|pool| + 2)
        # = 30 in all, where the element-wise loop needs 3^6 * 6 + 6 products
        calls = []
        divide = verify._divide

        def counting(cs, x):
            calls.append(len(cs))
            return divide(cs, x)

        monkeypatch.setattr(verify, "_divide", counting)
        roots, z, pools = _draw(Stream(412), 4, 6)
        assert [len(pool) for pool in pools] == [3] * 6
        exact_cstar_quotients(roots, z, pools)
        assert len(calls) == 6 * (3 + 2)

    def test_non_finite_input_is_domain_error(self):
        roots, z, pools = _draw(Stream(413), 3, 2)
        pools[1] = pools[1] + [complex("nan")]
        with pytest.raises(DomainError, match="must be finite"):
            exact_cstar_quotients(roots, z, pools)


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
        with pytest.raises(PreconditionError):
            exact_cstar_quotients([[1 + 0j], [-1 + 0j]], [2 + 0j], [[]])

    def test_matches_power_sum(self):
        # B(w) = sum_{i>=1} c_i w^(i-1) term by term in XC, independent of
        # the synthetic division, over |c_1|^2
        stream = Stream(414)
        for n in (1, 2, 5, 12):
            st_ = stream.derive(n)
            coeffs = [st_.complex_in_disk(2.0) for _ in range(n + 1)]
            witnesses = [st_.complex_in_disk(3.0) for _ in range(5)]
            ratios = []
            for w in witnesses:
                xw = XC.of(w)
                acc, power = XC(Fraction(0), Fraction(0)), XC(Fraction(1), Fraction(0))
                for c in coeffs[1:]:
                    acc = acc + XC.of(c) * power
                    power = power * xw
                ratios.append(acc.abs2() / XC.of(coeffs[1]).abs2())
            assert exact_normalized_ratios(coeffs, witnesses) == (min(ratios), max(ratios))

    def test_reads_what_the_float_ratio_reads(self):
        # a_0 = 1e-13 drops out, as it does from |P(w) - a_0| / (|w| |a_1|):
        # at w = 1 both give 0.25 exactly
        lo, hi = exact_normalized_ratios([1e-13 + 0j, 1 + 0j, -0.5 + 0j], [1 + 0j])
        assert lo == hi == Fraction(1, 4)

    def test_divides_by_a_1(self):
        lo, _ = exact_normalized_ratios([0j, 2 + 0j, -1 + 0j], [1 + 0j])
        assert lo == Fraction(1, 4)
        with pytest.raises(PreconditionError, match="a_1"):
            exact_normalized_ratios([0j, 0j, 1 + 0j], [1 + 0j])

    def test_witness_at_zero_is_precondition_error(self):
        coeffs = [0j, 1 + 0j, -0.5 + 0j]
        with pytest.raises(PreconditionError, match="w = 0"):
            exact_normalized_ratios(coeffs, [1 + 0j, 0j])
        with pytest.raises(PreconditionError, match="w = 0"):
            confirm_normalized("s0_sharp", coeffs, [0j], 0.5)

    def test_non_finite_witness_is_domain_error(self):
        with pytest.raises(DomainError, match="must be finite"):
            exact_normalized_ratios([0j, 1 + 0j], [complex("inf")])


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
