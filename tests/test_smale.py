import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    higher_order_oracle,
    polar,
    random_roots,
    renormalize_oracle,
    scale_conjugate,
)
from smale_lab import smale
from smale_lab.errors import DomainError, PreconditionError
from smale_lab.polycore import (
    COINCIDENCE_TOL,
    derivative,
    divided_difference,
    evaluate,
    from_coeffs,
    from_roots,
    require_finite,
)
from smale_lab.rng import Stream
from smale_lab.rootfind import cached_critical_points
from smale_lab.search import random_normalized_poly
from smale_lab.smale import (
    SampleConfig,
    bound_report,
    ds0,
    ds_at,
    s0,
    s_at,
    sample_points,
)
from smale_lab.verify import XC

CUBIC = from_coeffs([0, 1, 0, -1 / 3])  # z - z^3/3
QUAD = from_coeffs([0, 1, -0.5])  # z - z^2/2
FAST_SAMPLER = SampleConfig(n_samples=60, refine_starts=2, refine_max_iter=60)


def random_quadratic(st_):
    while True:
        a2 = st_.complex_in_disk(2.0)
        if abs(a2) > 0.05:
            break
    return from_coeffs([st_.complex_in_disk(2.0), st_.complex_in_disk(2.0), a2])


class TestQuotient:
    # one critical point, or two at one quotient: s_at's quotient is the
    # quotient at each of them
    def test_square(self):
        assert s_at(from_coeffs([0, 0, 1]), 2.0).quotient == pytest.approx(2.0)

    def test_quadratic_is_distance_squared_over_gap(self):
        # P(z) - P(c) = a2 (z - c)^2 at the midpoint c, so the quotient is
        # |a2| |z - c|
        stream = Stream(5)
        for _ in range(50):
            a, b = stream.complex_in_disk(3.0), stream.complex_in_disk(3.0)
            z = stream.complex_in_disk(3.0)
            c = (a + b) / 2
            if abs(z - c) < 1e-3:
                continue
            q = s_at(from_roots([a, b]), z).quotient
            assert q == pytest.approx(abs(z - c), rel=1e-10)

    def test_cubic_example(self):
        assert s_at(CUBIC, 0.0).quotient == pytest.approx(2 / 3, rel=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(PreconditionError):
            s_at(QUAD, 1.0 + 1e-14)


class TestPointwise:
    def test_quadratic_ratio_is_half(self):
        stream = Stream(17)
        for _ in range(50):
            p = random_quadratic(stream)
            z = stream.complex_in_disk(4.0)
            c = cached_critical_points(p).roots[0]
            if abs(z - c) < 1e-3:
                continue
            assert s_at(p, z).ratio == pytest.approx(0.5, abs=1e-11)
            assert ds_at(p, z).ratio == pytest.approx(0.5, abs=1e-11)

    def test_cubic_at_origin(self):
        wit = s_at(CUBIC, 0.0)
        assert wit.ratio == pytest.approx(2 / 3, rel=1e-12)
        assert ds_at(CUBIC, 0.0).ratio == pytest.approx(2 / 3, rel=1e-12)

    def test_tie_breaks_to_first_in_root_order(self):
        # both critical points +-1 give the same quotient at z = 0; the
        # witness must be the lexicographically first (-1)
        first = cached_critical_points(CUBIC).roots[0]
        assert s_at(CUBIC, 0.0).w == first
        assert ds_at(CUBIC, 0.0).w == first

    def test_square_at_one(self):
        wit = s_at(from_coeffs([0, 0, 1]), 1.0)
        assert wit.quotient == pytest.approx(1.0)
        assert wit.ratio == pytest.approx(0.5)

    def test_critical_point_rejected(self):
        for w in cached_critical_points(CUBIC).roots:
            for at in (s_at, ds_at):
                with pytest.raises(PreconditionError):
                    at(CUBIC, w)

    def test_degree_one_rejected(self):
        with pytest.raises(DomainError):
            s_at(from_coeffs([0, 1]), 0.5)

    def test_min_le_max_on_random_inputs(self):
        stream = Stream(23)
        for trial in range(60):
            p = from_roots(random_roots(stream.derive(trial), 5))
            z = stream.complex_in_disk(6.0)
            try:
                lo = s_at(p, z).ratio
                hi = ds_at(p, z).ratio
            except PreconditionError:
                continue
            assert lo <= hi + 1e-15


class TestNormalized:
    def test_s0_quadratic(self):
        assert s0(QUAD).ratio == pytest.approx(0.5, rel=1e-12)

    def test_s0_cubic(self):
        assert s0(CUBIC).ratio == pytest.approx(2 / 3, rel=1e-12)

    def test_s0_zero_when_critical_point_is_root(self):
        p = from_coeffs([0, 1, -1, 0.25])  # z(z-2)^2 / 4
        assert s0(p).ratio == pytest.approx(0.0, abs=1e-12)

    def test_ds0_quadratic(self):
        assert ds0(QUAD).ratio == pytest.approx(0.5, rel=1e-12)

    def test_ds0_cubic(self):
        assert ds0(CUBIC).ratio == pytest.approx(2 / 3, rel=1e-12)

    def test_ds0_shifted_cubic(self):
        # z(z-2)^2/4: critical points 2/3 and 2 (quadratic formula oracle);
        # |P(2/3) / (2/3)| = (8/27) * (3/2) = 4/9, the other value is 0
        p = from_coeffs([0, 1, -1, 0.25])
        wit = ds0(p)
        assert wit.ratio == pytest.approx(4 / 9, rel=1e-10)
        assert abs(wit.w - 2 / 3) <= 1e-9

    def test_non_normalized_rejected(self):
        with pytest.raises(PreconditionError):
            s0(from_coeffs([0, 2, 1]))

    def test_large_coefficient_passes_no_critical_test_at_zero(self):
        # z + 1e12 z^3: both critical points have w^2 = -1/(3e12), so
        # P(w)/w = 1 + 1e12 w^2 = 2/3.  A critical-point test at z = 0 on
        # the scale of the coefficients (|a_1| = 1 against 1e-10 * 3e12)
        # would reject the point P is normalized at.
        p = from_coeffs([0, 1, 0, 1e12])
        assert s0(p).ratio == pytest.approx(2 / 3, rel=1e-12)
        assert ds0(p).ratio == pytest.approx(2 / 3, rel=1e-12)

    def test_extremal_family_values(self):
        for n in range(2, 11):
            coeffs = [0.0] * (n + 1)
            coeffs[1] = 1.0
            coeffs[n] = -1.0 / n
            p = from_coeffs(coeffs)
            assert s0(p).ratio == pytest.approx((n - 1) / n, abs=1e-9)
            assert ds0(p).ratio == pytest.approx((n - 1) / n, abs=1e-9)

    @given(
        st.builds(
            polar,
            st.floats(0.3, 3.0),
            st.floats(0, 2 * math.pi),
        )
    )
    def test_scale_invariance(self, lam):
        p = from_coeffs([0, 1, 0.4 - 0.2j, 0, -0.15])
        q = scale_conjugate(p, lam)
        assert s0(q).ratio == pytest.approx(s0(p).ratio, abs=1e-9)
        assert ds0(q).ratio == pytest.approx(ds0(p).ratio, abs=1e-9)


class TestRenormalizeBridge:
    def test_s0_of_recentered_equals_pointwise_ratio(self):
        stream = Stream(47)
        for trial in range(25):
            p = from_roots(random_roots(stream.derive(trial), 4))
            z0 = stream.complex_in_disk(3.0)
            try:
                expected = s_at(p, z0).ratio
                q = renormalize_oracle(p, z0)
                got = s0(q).ratio
            except PreconditionError:
                continue
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestEstimates:
    def test_degree2_exact(self):
        p = from_roots([0.5 + 0.5j, -1.0])
        rep = bound_report(p, FAST_SAMPLER)
        assert rep.s_estimate == pytest.approx(0.5, abs=1e-9)
        assert rep.ds_estimate == pytest.approx(0.5, abs=1e-9)

    def test_cubic_bracket(self):
        val = bound_report(CUBIC, FAST_SAMPLER).s_estimate
        assert 2 / 3 - 1e-6 <= val <= 4 * (3 - 1) / (3 + 1) + 1e-9

    def test_smale_ceiling(self):
        stream = Stream(99)
        for trial in range(10):
            p = from_roots(random_roots(stream.derive(trial), 6))
            assert bound_report(p, FAST_SAMPLER).s_estimate <= 4 + 1e-9

    def test_ds_floors(self):
        val = bound_report(CUBIC, FAST_SAMPLER).ds_estimate
        assert val >= math.tan(math.pi / 12) / 3 - 1e-6
        assert val >= 1 / (3 * 4 ** 3) - 1e-9

    def test_deterministic_given_seed(self):
        p = from_roots(random_roots(Stream(3), 5))
        a = bound_report(p, SampleConfig(n_samples=40, seed=11)).s_estimate
        b = bound_report(p, SampleConfig(n_samples=40, seed=11)).s_estimate
        assert a == b


class TestHigherOrder:
    def test_degree2_is_quarter(self):
        stream = Stream(71)
        for _ in range(40):
            p = random_quadratic(stream)
            z = stream.complex_in_disk(4.0)
            c = cached_critical_points(p).roots[0]
            if abs(z - c) < 1e-3:
                continue
            assert higher_order_oracle(p, z, c, 2) == pytest.approx(0.25, abs=1e-10)

    def test_cubic_k2_vanishes_at_origin(self):
        assert higher_order_oracle(CUBIC, 0.0, 1.0, 2) == pytest.approx(0.0, abs=1e-15)

    def test_cubic_k3_frozen_value(self):
        # (|P'''(0)| / 3!) |P(0) - P(1)|^2 / |P'(0)|^3 = (2/6)(2/3)^2 = 4/27
        val = higher_order_oracle(CUBIC, 0.0, 1.0, 3)
        assert val == pytest.approx(4 / 27, rel=1e-12)
        assert val <= 4 ** 2

    def test_bound_report_observes_the_oracle_maximum(self):
        # bound_report computes the quantity inline, at the critical point
        # with the nearest value, where the quantity is smallest
        p = from_roots(random_roots(Stream(84), 5))
        observed = {c.name: c.observed for c in bound_report(p, FAST_SAMPLER).bound_checks}
        ws = cached_critical_points(p).roots
        pts = sample_points(p, FAST_SAMPLER)
        for k in range(2, 6):
            want = max(min(higher_order_oracle(p, z, w, k) for w in ws) for z in pts)
            assert observed[f"higher_order_k{k}"] == pytest.approx(want, rel=1e-9)

    def test_bound_at_nearest_value_witness(self):
        # the theorem guarantees some critical point obeys the bound for
        # all k at once; the nearest critical value realizes the minimum
        # of the quantity, so it must always satisfy the bound
        stream = Stream(83)
        for trial in range(40):
            p = from_roots(random_roots(stream.derive(trial), 6))
            z = stream.complex_in_disk(5.0)
            ws = cached_critical_points(p).roots
            w = min(ws, key=lambda w: abs(evaluate(p, z) - evaluate(p, w)))
            for k in range(2, 7):
                assert higher_order_oracle(p, z, w, k) <= 4 ** (k - 1) + 1e-9

    def test_quotient_witness_can_exceed_bound(self):
        # regression instance: the quotient-minimizing witness is NOT a
        # valid witness for the higher-order inequality, while the
        # nearest-value witness is
        roots = [
            1.5848484878352573 - 0.18913037336647795j,
            -0.25661456803420435 - 1.7102681418103987j,
            -0.572703660294971 - 1.5804159408821927j,
            1.3360687219930134 + 1.0830572026469443j,
        ]
        p = from_roots(roots)
        z = -0.43534722443003826 - 1.7752278480831385j
        ws = cached_critical_points(p).roots
        qmin = s_at(p, z).w
        vmin = min(ws, key=lambda w: abs(evaluate(p, z) - evaluate(p, w)))
        assert higher_order_oracle(p, z, qmin, 2) > 4 + 1e-9
        assert higher_order_oracle(p, z, vmin, 2) <= 4 + 1e-9


class TestBoundReport:
    def test_degree2_normalized(self):
        rep = bound_report(QUAD, FAST_SAMPLER)
        assert rep.all_theorems_pass
        assert rep.ds0 == pytest.approx(0.5, rel=1e-12)
        assert rep.ds0 > 4.0 ** -2

    def test_cubic(self):
        rep = bound_report(CUBIC, FAST_SAMPLER)
        assert rep.all_theorems_pass
        assert rep.s0 == pytest.approx(2 / 3, rel=1e-12)
        assert rep.s0 <= 4 ** 0.5

    def test_degree10_extremal(self):
        coeffs = [0.0] * 11
        coeffs[1] = 1.0
        coeffs[10] = -0.1
        rep = bound_report(from_coeffs(coeffs), FAST_SAMPLER)
        assert rep.s0 == pytest.approx(0.9, abs=1e-9)
        assert rep.all_theorems_pass

    def test_witness_fields_populated(self):
        rep = bound_report(QUAD, FAST_SAMPLER)
        assert rep.s_argmax_z is not None
        # the ds witness and point are there exactly when a sample reached
        # 1/n or below; at degree 2 ds is 1/2 up to rounding, so either can hold
        assert len(rep.witnesses) == (1 if rep.ds_argmin_z is None else 2)

    def test_degree2_sharp_entry_present(self):
        rep = bound_report(QUAD, FAST_SAMPLER)
        names = {c.name for c in rep.bound_checks}
        assert "higher_order_degree2_sharp" in names
        assert "higher_order_k2" in names


class TestDualLimit:
    """ds(P, z) tends to 1/n as |z| grows, so bound_report reports the
    sampled minimum of ds capped at 1/n, with no point or witness when the
    limit wins."""

    @staticmethod
    def polys():
        stream = Stream(5151)
        for trial in range(28):
            st_ = stream.derive(trial)
            degree = 2 + trial % 7
            if trial % 2:
                yield random_normalized_poly(degree, st_)
            else:
                yield from_roots(random_roots(st_, degree))

    def test_estimate_is_sampled_minimum_capped_at_limit(self):
        for p in self.polys():
            rep = bound_report(p, FAST_SAMPLER)
            pts = sample_points(p, FAST_SAMPLER)
            sampled = min(ds_at(p, z).ratio for z in pts)
            assert rep.ds_estimate == min(sampled, 1 / p.degree)
            assert len(rep.witnesses) == (1 if rep.ds_argmin_z is None else 2)
            if rep.ds_argmin_z is not None:
                # a sampled point, so never outside the sampling disc
                assert rep.ds_argmin_z in pts
                assert rep.witnesses[1] == ds_at(p, rep.ds_argmin_z)

    def test_cubic_reports_the_limit(self):
        rep = bound_report(CUBIC, FAST_SAMPLER)
        assert rep.ds_estimate == 1 / 3
        assert rep.ds_argmin_z is None
        assert len(rep.witnesses) == 1


class TestDegree2Sweep:
    def test_exactness_over_seeded_grid(self):
        # 100 random quadratics x 1000 random non-critical points
        stream = Stream(424242)
        for trial in range(100):
            st_ = stream.derive(trial)
            p = random_quadratic(st_)
            c = cached_critical_points(p).roots[0]
            checked = 0
            while checked < 1000:
                z = st_.complex_in_disk(4.0)
                if abs(z - c) < 1e-3:
                    continue
                checked += 1
                assert abs(s_at(p, z).ratio - 0.5) <= 1e-9
                assert abs(ds_at(p, z).ratio - 0.5) <= 1e-9


def reference_extremes(p, z):
    """(w, quotient, ratio) of the smallest and largest quotient at z, from
    one synthetic division P(x) = (x - z) B(x) + P(z): the quotient at w is
    |B(w)| and |P'(z)| is |B(z)|; ties go to the first in root order."""
    z = require_finite(z)
    b = [p.coeffs[-1]]
    for a in p.coeffs[-2:0:-1]:
        b.append(b[-1] * z + a)

    def horner_b(x):
        acc = b[0]
        for c in b[1:]:
            acc = acc * x + c
        return acc

    inv = 1.0 / abs(horner_b(z))
    found = []
    for w in cached_critical_points(p).roots:
        if abs(z - w) <= COINCIDENCE_TOL * max(1.0, abs(z), abs(w)):
            raise PreconditionError(f"points coincide: z = {z!r}, w = {w!r}")
        found.append((w, abs(horner_b(w))))
    lo = min(found, key=lambda item: item[1])
    hi = max(found, key=lambda item: item[1])
    return [(w, q, q * inv) for w, q in (lo, hi)]


def exact_value(coeffs, x):
    """P(x) in exact rational arithmetic, for float coefficients and x."""
    x = XC.of(x)
    acc = XC(Fraction(0), Fraction(0))
    for a in reversed(coeffs):
        acc = acc * x + XC.of(a)
    return acc


def relative_error(got, exact_abs2):
    want = math.sqrt(exact_abs2)
    return abs(got - want) / want


def kernel_oracle_polys():
    stream = Stream(2718)
    for trial in range(200):
        st_ = stream.derive(trial)
        degree = 2 + trial % 7
        if trial % 2:
            yield random_normalized_poly(degree, st_)
        else:
            yield from_roots(random_roots(st_, degree))


def reference_sample_points(p, sampler):
    """sample_points with the margin test written as one all(...) and the
    |P'| test chained after it."""
    kernel = smale._kernel(p)
    criticals, dp = kernel.criticals, kernel.dp
    stream = Stream(sampler.seed, smale._STREAM_SAMPLES)
    radius = smale._sampling_radius(p)
    floor = 10.0 * smale.CRITICAL_TOL * dp.coeff_scale
    pts = []
    for _ in range(sampler.n_samples):
        for _attempt in range(256):
            cand = stream.complex_in_disk(radius)
            if all(abs(cand - w) > smale.SAMPLER_MARGIN for w in criticals) and abs(
                evaluate(dp, cand)
            ) > floor * max(1.0, abs(cand)) ** dp.degree:
                pts.append(cand)
                break
    return pts


class TestQuotientKernel:
    @pytest.mark.parametrize("margin", [smale.SAMPLER_MARGIN, 0.5])
    def test_sampler_matches_reference_sampler(self, margin, monkeypatch):
        # the wide margin rejects many candidates, so both exits of the
        # margin loop run
        monkeypatch.setattr(smale, "SAMPLER_MARGIN", margin)
        for trial, p in enumerate(kernel_oracle_polys()):
            sampler = SampleConfig(n_samples=16, seed=trial)
            assert sample_points(p, sampler) == reference_sample_points(p, sampler)

    def test_matches_reference_loop_bitwise(self):
        checked = 0
        for trial, p in enumerate(kernel_oracle_polys()):
            for z in sample_points(p, SampleConfig(n_samples=8, seed=trial)):
                got = [(wit.w, wit.quotient, wit.ratio) for wit in (s_at(p, z), ds_at(p, z))]
                assert got == reference_extremes(p, z)
                checked += 1
        assert checked == 200 * 8

    def test_quotients_match_exact_rational_arithmetic(self):
        # sample points, and points 1e-3 from each critical point where
        # P(z) - P(w) is small; the float z, w and coefficients are taken
        # as exact rationals
        checked = 0
        for trial, p in enumerate(kernel_oracle_polys()):
            kernel = smale._kernel(p)
            ws = kernel.criticals
            dcoeffs = derivative(p).coeffs
            pts = sample_points(p, SampleConfig(n_samples=3, seed=trial))
            pts += [w + polar(1e-3, trial + j) for j, w in enumerate(ws)]
            pw = [exact_value(p.coeffs, w) for w in ws]
            for z in pts:
                dabs, qs = kernel.scan(z)
                assert relative_error(dabs, exact_value(dcoeffs, z).abs2()) <= 1e-9
                pz = exact_value(p.coeffs, z)
                for w, pw_, q in zip(ws, pw, qs):
                    exact = (pz - pw_).abs2() / (XC.of(z) - XC.of(w)).abs2()
                    assert relative_error(q, exact) <= 1e-9
                    # divided_difference stays an independent oracle
                    assert relative_error(abs(divided_difference(p, z, w)), exact) <= 1e-9
                    checked += 1
        assert checked > 200 * 5

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
    def test_non_finite_point_is_domain_error(self, z):
        for at in (s_at, ds_at, reference_extremes):
            with pytest.raises(DomainError):
                at(CUBIC, z)

    @pytest.mark.parametrize("at", [s_at, ds_at])
    def test_overflowing_point_is_domain_error(self, at):
        # |z|^2 overflows in the critical-point scale of z - z^3/3, which
        # raised a bare OverflowError before
        with pytest.raises(DomainError, match="overflows"):
            at(from_coeffs([0, 1, 0, -1 / 3]), 1e300)

    def test_coincident_point_is_precondition_error(self):
        for w in cached_critical_points(CUBIC).roots:
            for at in (s_at, ds_at, reference_extremes):
                with pytest.raises(PreconditionError):
                    at(CUBIC, w + 1e-14)

    def test_memo_serves_only_its_own_point(self):
        # s_at at z1 leaves z1's scan in the kernel; ds_at at z2 must not read it
        z1, z2 = complex(0.3, 0.7), complex(-0.4, 0.2)
        for p in (CUBIC, from_roots(random_roots(Stream(62), 5))):
            s_at(p, z1)
            wit = ds_at(p, z2)
            assert [(wit.w, wit.quotient, wit.ratio)] == reference_extremes(p, z2)[1:]

    def test_memo_is_per_polynomial(self):
        z = complex(0.3, 0.7)
        other = from_roots(random_roots(Stream(63), 4))
        for p in (CUBIC, other, CUBIC):
            got = [(wit.w, wit.quotient, wit.ratio) for wit in (s_at(p, z), ds_at(p, z))]
            assert got == reference_extremes(p, z)

    def test_memo_never_keeps_a_failed_scan(self):
        good = complex(0.3, 0.7)
        s_at(CUBIC, good)
        z = cached_critical_points(CUBIC).roots[0] + 1e-14
        for at in (s_at, ds_at, s_at):
            with pytest.raises(PreconditionError):
                at(CUBIC, z)
        for z in (good, complex(-0.4, 0.2)):
            got = [(wit.w, wit.quotient, wit.ratio) for wit in (s_at(CUBIC, z), ds_at(CUBIC, z))]
            assert got == reference_extremes(CUBIC, z)

    def test_memo_answers_the_same_in_either_order(self):
        p = from_roots(random_roots(Stream(64), 6))
        for z in sample_points(p, SampleConfig(n_samples=20, seed=5)):
            smale._kernel.cache_clear()
            forward = (s_at(p, z), ds_at(p, z))
            smale._kernel.cache_clear()
            backward = (ds_at(p, z), s_at(p, z))
            assert forward == backward[::-1]
            assert [(wit.w, wit.quotient, wit.ratio) for wit in forward] == reference_extremes(p, z)

    def test_s_at_and_ds_at_at_one_point_share_one_scan(self, monkeypatch):
        calls = []
        deflate = smale._QuotientKernel.deflate

        def counted(self, z):
            calls.append(z)
            return deflate(self, z)

        monkeypatch.setattr(smale._QuotientKernel, "deflate", counted)
        p = from_roots(random_roots(Stream(65), 5))
        for z in sample_points(p, SampleConfig(n_samples=10, seed=6)):
            calls.clear()
            s_at(p, z)
            ds_at(p, z)
            assert calls == [z]
            # the stored quotients are immutable, so no caller can change them
            assert isinstance(smale._kernel(p).scan(z)[1], tuple)
            assert calls == [z]

    def test_bound_report_cache_lookups_do_not_grow_with_refinement(self, monkeypatch):
        # the kernel is fetched from its cache a fixed number of times per
        # report, so no refinement step looks up the kernel or the critical
        # points again
        lookups = Counter()
        kernel_cache = smale._kernel

        def spy(name, fn):
            def counted(*args):
                lookups[name] += 1
                return fn(*args)

            monkeypatch.setattr(smale, name, counted)

        spy("critical_points", smale.critical_points)
        spy("_kernel", kernel_cache)
        scan = smale._QuotientKernel.scan

        def counted_scan(self, z):
            lookups["scan"] += 1
            return scan(self, z)

        monkeypatch.setattr(smale._QuotientKernel, "scan", counted_scan)
        p = from_roots(random_roots(Stream(61), 5))
        counts = []
        for max_iter in (30, 120):
            kernel_cache.cache_clear()  # each report builds the kernel afresh
            lookups.clear()
            bound_report(p, SampleConfig(n_samples=20, seed=4, refine_starts=2,
                                         refine_max_iter=max_iter))
            counts.append(dict(lookups))
        short, long = counts
        assert long.pop("scan") > short.pop("scan")
        assert short == long
        assert short["critical_points"] == 1

    def test_kernel_built_once_per_polynomial(self, monkeypatch):
        # every entry point reads P', its threshold and the critical points
        # from one cached kernel, however many points it is asked about
        built = []
        init = smale._QuotientKernel.__init__

        def counted_init(self, p):
            built.append(p)
            init(self, p)

        monkeypatch.setattr(smale._QuotientKernel, "__init__", counted_init)
        smale._kernel.cache_clear()
        p = random_normalized_poly(4, Stream(7771))  # normalized: s0 and ds0 run too
        pts = sample_points(p, SampleConfig(n_samples=50, seed=3))
        assert len(pts) == 50
        for z in pts:
            s_at(p, z)
            ds_at(p, z)
        s0(p)
        ds0(p)
        rep = bound_report(p, FAST_SAMPLER)
        assert rep.s0 is not None and rep.ds0 is not None
        assert built == [p]

    def test_kernel_cache_holds_only_the_polynomial_in_hand(self):
        # every caller finishes one polynomial before the next, so the one
        # cache of per-polynomial work keeps a single kernel
        p, q = (from_roots(random_roots(Stream(seed), 4)) for seed in (66, 67))
        bound_report(p, FAST_SAMPLER)
        bound_report(q, FAST_SAMPLER)
        info = smale._kernel.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)
        hits = info.hits
        smale._kernel(q)
        assert smale._kernel.cache_info().hits == hits + 1

    @pytest.mark.parametrize("z", [3, -2, 3.0, 0.25, 10**20, 2 + 0j])
    def test_derivative_abs_is_evaluate_for_real_and_integer_points(self, z):
        # a real or integer z gives the bits of the complex one, |P'(z)|
        # and every quotient
        for p in (CUBIC, from_roots([1 + 2j, -1, 0.5j, 3])):
            kernel = smale._kernel(p)
            assert kernel.scan(z) == kernel.scan(complex(z))

    @pytest.mark.parametrize("field,value", [
        ("n_samples", 0),
        ("n_samples", -5),
        ("refine_starts", -1),
        ("refine_max_iter", -1),
    ])
    def test_sample_config_rejects_bad_counts(self, field, value):
        with pytest.raises(DomainError):
            SampleConfig(**{field: value})
        SampleConfig(refine_starts=0, refine_max_iter=0)
