import math

import pytest

from smale_lab import cstar as cstar_module
from smale_lab.cstar import (
    CStarElement,
    CStarPoly,
    check_smale,
    check_strong_forms,
    cstar_derivative_eval,
    degree2_higher_order,
    degree2_identity_residual,
    enumerate_critical_set,
)
from smale_lab.errors import CapacityError, DomainError, PreconditionError
from smale_lab.polycore import COINCIDENCE_TOL, evaluate, from_roots
from smale_lab.rng import Stream
from smale_lab.smale import ds_at, s_at

def rand_element(st_: Stream, k: int, radius: float = 4.0) -> CStarElement:
    return CStarElement(tuple(st_.complex_in_disk(radius) for _ in range(k)))


def pointwise_value(P: CStarPoly, z: CStarElement) -> tuple[complex, ...]:
    """P(z) coordinate by coordinate, by evaluate on each coordinate poly."""
    return tuple(evaluate(p, zt) for p, zt in zip(P.coordinate_polys, z.coords))


def quotient_norm(P: CStarPoly, z: CStarElement, w: CStarElement) -> float:
    """||P(z) - P(w)|| / ||z - w|| from the direct differences."""
    pz, pw = pointwise_value(P, z), pointwise_value(P, w)
    return max(abs(a - b) for a, b in zip(pz, pw)) / (z - w).norm()


class TestAlgebra:
    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            CStarElement((1j,)) + CStarElement((1j, 2j))

    def test_sup_norm(self):
        assert CStarElement((3 + 4j, 1 + 0j)).norm() == 5.0


class TestEvaluation:
    def test_square_pointwise(self):
        P = CStarPoly((CStarElement((0j, 0j)), CStarElement((0j, 0j))))
        z = CStarElement((1 + 0j, 2 + 0j))
        assert pointwise_value(P, z) == ((1 + 0j), (4 + 0j))
        assert cstar_derivative_eval(P, z).coords == ((2 + 0j), (4 + 0j))

    def test_hand_expansion(self):
        P = CStarPoly((CStarElement((1 + 0j, 0j)), CStarElement((0j, 1 + 0j))))
        z = CStarElement((2 + 0j, 2 + 0j))
        assert pointwise_value(P, z) == ((2 + 0j), (2 + 0j))

    def test_k1_reduction(self):
        stream = Stream(88)
        roots = [stream.complex_in_disk(2.0) for _ in range(4)]
        P = CStarPoly(tuple(CStarElement((r,)) for r in roots))
        (p,) = P.coordinate_polys
        for _ in range(50):
            z = stream.complex_in_disk(3.0)
            want = math.prod(z - r for r in roots)
            assert abs(evaluate(p, z) - want) <= 1e-12 * (1 + abs(want))

    def test_degree2_derivative_is_2z_minus_sum(self):
        stream = Stream(89)
        for _ in range(30):
            a, b, z = (rand_element(stream, 3) for _ in range(3))
            got = cstar_derivative_eval(CStarPoly((a, b)), z)
            for t in range(3):
                want = 2 * z.coords[t] - (a.coords[t] + b.coords[t])
                assert abs(got.coords[t] - want) <= 1e-12 * (1 + abs(want))

    def test_derivative_cross_check_coordinate_poly(self):
        stream = Stream(90)
        roots = tuple(rand_element(stream, 2, 2.0) for _ in range(5))
        P = CStarPoly(roots)
        z = rand_element(stream, 2, 3.0)
        got = cstar_derivative_eval(P, z)
        for t in range(2):
            p = P.coordinate_polys[t]
            from smale_lab.polycore import derivative

            want = evaluate(derivative(p), z.coords[t])
            assert abs(got.coords[t] - want) <= 1e-10 * (1 + abs(want))

    def test_dim_mismatch(self):
        P = CStarPoly((CStarElement((0j,)), CStarElement((1 + 0j,))))
        with pytest.raises(DomainError):
            cstar_derivative_eval(P, CStarElement((0j, 0j)))


class TestCriticalSet:
    def test_degree2_single_element(self):
        stream = Stream(91)
        a, b = rand_element(stream, 4, 2.0), rand_element(stream, 4, 2.0)
        crit = enumerate_critical_set(CStarPoly((a, b)))
        assert crit.product_size == 1
        (w,) = list(crit.elements())
        for t in range(4):
            assert abs(w.coords[t] - (a.coords[t] + b.coords[t]) / 2) <= 1e-10

    def test_degree3_dim2_product(self):
        stream = Stream(92)
        roots = tuple(rand_element(stream, 2, 2.0) for _ in range(3))
        crit = enumerate_critical_set(CStarPoly(roots))
        assert crit.product_size == 4
        assert sum(1 for _ in crit.elements()) == 4

    def test_k1_classical_count(self):
        stream = Stream(93)
        roots = tuple(CStarElement((stream.complex_in_disk(2.0),)) for _ in range(5))
        crit = enumerate_critical_set(CStarPoly(roots))
        assert sum(crit.per_coordinate[0].multiplicities) == 4

    def test_capacity_error(self, monkeypatch):
        # the cap is read at call time; 3^3 = 27 elements exceed a cap of 10
        monkeypatch.setattr(cstar_module, "DEFAULT_PRODUCT_CAP", 10)
        stream = Stream(94)
        roots = tuple(rand_element(stream, 3, 2.0) for _ in range(4))
        with pytest.raises(CapacityError, match="cap 10"):
            enumerate_critical_set(CStarPoly(roots))


def _elementwise_check(P, z):
    """(min, max, best witness, strong flags) by recomputing every term for
    each element of the critical product."""
    slack = cstar_module.CONJ_SLACK
    dval = cstar_derivative_eval(P, z)
    dnorm = dval.norm()
    point_scale = max(1.0, z.norm())
    n = P.degree
    sharp_sq = ((n - 1) / n) ** 2
    dual_sq = 1.0 / n ** 2

    def strong_holds(diffs, w, factor_sq, reverse):
        for t in range(len(diffs)):
            lhs = abs(diffs[t]) ** 2
            rhs = factor_sq * abs(z.coords[t] - w.coords[t]) ** 2 * abs(dval.coords[t]) ** 2
            margin = slack * max(1.0, lhs, rhs)
            if (rhs > lhs + margin) if reverse else (lhs > rhs + margin):
                return False
        return True

    strong_smale = strong_dual = False
    min_ratio, max_ratio, best_w = math.inf, -math.inf, None
    for w in enumerate_critical_set(P).elements():
        dist = max(abs(a - b) for a, b in zip(z.coords, w.coords))
        assert dist > COINCIDENCE_TOL * max(point_scale, w.norm())
        diffs = []
        for t in range(P.dim):
            zt, wt = z.coords[t], w.coords[t]
            zf = [zt - r.coords[t] for r in P.roots]
            wf = [wt - r.coords[t] for r in P.roots]
            suffix = [1.0 + 0.0j] * (n + 1)
            for j in range(n - 1, -1, -1):
                suffix[j] = suffix[j + 1] * wf[j]
            acc, prefix = 0.0 + 0.0j, 1.0 + 0.0j
            for j in range(n):
                acc += prefix * suffix[j + 1]
                prefix *= zf[j]
            diffs.append(acc * (zt - wt))
        ratio = max(abs(d) for d in diffs) / (dist * dnorm)
        if ratio < min_ratio:
            min_ratio, best_w = ratio, w
        if ratio > max_ratio:
            max_ratio = ratio
        strong_smale = strong_smale or strong_holds(diffs, w, sharp_sq, False)
        strong_dual = strong_dual or strong_holds(diffs, w, dual_sq, True)
    return min_ratio, max_ratio, best_w, strong_smale, strong_dual


class TestCheckSmale:
    def test_degree2_equalities(self):
        stream = Stream(95)
        for trial in range(50):
            st_ = stream.derive(trial)
            k = (trial % 4) + 1
            a, b, z = (rand_element(st_, k) for _ in range(3))
            try:
                v = check_smale(CStarPoly((a, b)), z)
            except PreconditionError:
                continue
            assert v.min_ratio == pytest.approx(0.5, abs=1e-9)
            assert v.max_ratio == pytest.approx(0.5, abs=1e-9)
            assert v.sharp_pass and v.dual_pass and v.weak_pass

    def test_k1_reduction_to_scalar(self):
        stream = Stream(96)
        roots = [stream.complex_in_disk(2.0) for _ in range(4)]
        P = CStarPoly(tuple(CStarElement((r,)) for r in roots))
        p = from_roots(roots)
        for _ in range(20):
            z = stream.complex_in_disk(4.0)
            try:
                v = check_smale(P, CStarElement((z,)))
                lo = s_at(p, z).ratio
                hi = ds_at(p, z).ratio
            except PreconditionError:
                continue
            assert v.min_ratio == pytest.approx(lo, rel=1e-12, abs=1e-12)
            assert v.max_ratio == pytest.approx(hi, rel=1e-12, abs=1e-12)

    def test_exhaustive_enumeration_is_oracle(self, monkeypatch):
        # the per-coordinate tables give exactly (==) what the element-wise
        # loop over the full product gives, and the min/max agree with the
        # direct differences P(z) - P(w); a negative comparison slack then
        # makes the strong flags fail often, so both of their values occur
        cases = []
        stream = Stream(97)
        for n in range(2, 6):
            for k in range(1, 5):
                for trial in range(6):
                    st_ = stream.derive(n).derive(k).derive(trial)
                    P = CStarPoly(tuple(rand_element(st_, k, 2.0) for _ in range(n)))
                    cases.append((P, rand_element(st_, k, 3.0)))
        flags = set()
        for slack in (None, -0.25):
            if slack is not None:
                monkeypatch.setattr(cstar_module, "CONJ_SLACK", slack)
            for P, z in cases:
                try:
                    v = check_strong_forms(P, z)
                except PreconditionError:
                    continue
                want = _elementwise_check(P, z)
                got = (
                    v.min_ratio, v.max_ratio, v.best_witness,
                    v.strong_smale_pass, v.strong_dual_pass,
                )
                assert got == want
                assert v.min_ratio == check_smale(P, z).min_ratio
                if slack is None:
                    dnorm = cstar_derivative_eval(P, z).norm()
                    ratios = [
                        quotient_norm(P, z, w) / dnorm
                        for w in enumerate_critical_set(P).elements()
                    ]
                    assert v.min_ratio == pytest.approx(min(ratios), rel=1e-9)
                    assert v.max_ratio == pytest.approx(max(ratios), rel=1e-9)
                else:
                    flags.update((v.strong_smale_pass, v.strong_dual_pass))
        assert flags == {True, False}

    def test_min_over_product_le_min_over_subset(self):
        stream = Stream(98)
        roots = tuple(rand_element(stream, 3, 2.0) for _ in range(4))
        P = CStarPoly(roots)
        z = rand_element(stream, 3, 3.0)
        crit = enumerate_critical_set(P)
        dval = cstar_derivative_eval(P, z).norm()

        def ratio(w):
            return quotient_norm(P, z, w) / dval

        full_min = min(ratio(w) for w in crit.elements())
        # coordinate-greedy subset: pick per-coordinate best independently
        greedy = []
        for t in range(3):
            pool = crit.per_coordinate[t].roots
            zt = z.coords[t]
            pt = P.coordinate_polys[t]
            best = min(
                pool,
                key=lambda w: abs(evaluate(pt, zt) - evaluate(pt, w)) / abs(zt - w),
            )
            greedy.append(best)
        subset_min = ratio(CStarElement(tuple(greedy)))
        assert full_min <= subset_min + 1e-12


class TestStrongForms:
    def test_degree2_both_strong_flags(self):
        stream = Stream(99)
        for trial in range(50):
            st_ = stream.derive(trial)
            k = (trial % 4) + 1
            a, b, z = (rand_element(st_, k) for _ in range(3))
            try:
                v = check_strong_forms(CStarPoly((a, b)), z)
            except PreconditionError:
                continue
            assert v.strong_smale_pass
            assert v.strong_dual_pass

    def test_strong_implies_sharp(self):
        stream = Stream(100)
        for trial in range(60):
            st_ = stream.derive(trial)
            roots = tuple(rand_element(st_, 2, 2.0) for _ in range(3))
            z = rand_element(st_, 2, 3.0)
            try:
                v = check_strong_forms(CStarPoly(roots), z)
            except PreconditionError:
                continue
            if v.strong_smale_pass:
                assert v.sharp_pass

    def test_k1_strong_equals_ratio_check(self):
        stream = Stream(101)
        roots = tuple(CStarElement((stream.complex_in_disk(2.0),)) for _ in range(3))
        P = CStarPoly(roots)
        for _ in range(20):
            z = CStarElement((stream.complex_in_disk(3.0),))
            try:
                v = check_strong_forms(P, z)
            except PreconditionError:
                continue
            assert v.strong_smale_pass == v.sharp_pass
            assert v.strong_dual_pass == v.dual_pass


class TestDegree2Identity:
    def test_zero_roots(self):
        a = CStarElement((0j, 0j, 0j))
        z = CStarElement((1 + 0j, 1 + 0j, 1 + 0j))
        assert degree2_identity_residual(a, a, z) <= 1e-15

    def test_hand_arithmetic_k1(self):
        a = CStarElement((0j,))
        b = CStarElement((2 + 0j,))
        z = CStarElement((5 + 0j,))
        # |P(5) - P(1)|^2 = 256 and (1/4)|5-1|^2 |P'(5)|^2 = 256
        assert degree2_identity_residual(a, b, z) <= 1e-12

    def test_seeded_k8(self):
        stream = Stream(200)
        for trial in range(200):
            st_ = stream.derive(trial)
            a, b, z = (rand_element(st_, 8) for _ in range(3))
            assert degree2_identity_residual(a, b, z) <= 1e-10

    def test_higher_order_quarter_k1(self):
        stream = Stream(201)
        for _ in range(50):
            a, b, z = (rand_element(stream, 1) for _ in range(3))
            try:
                val = degree2_higher_order(a, b, z)
            except PreconditionError:
                continue
            assert val == pytest.approx(0.25, abs=1e-9)

    def test_higher_order_hand_value(self):
        zero = CStarElement((0j, 0j))
        z = CStarElement((1 + 0j, 2 + 0j))
        assert degree2_higher_order(zero, zero, z) == pytest.approx(0.25, abs=1e-12)

    def test_higher_order_bound_seeded_k4(self):
        stream = Stream(202)
        for trial in range(200):
            st_ = stream.derive(trial)
            a, b, z = (rand_element(st_, 4) for _ in range(3))
            try:
                val = degree2_higher_order(a, b, z)
            except PreconditionError:
                continue
            assert val <= 0.25 + 1e-9


class TestPolyType:
    def test_degree_bound(self):
        with pytest.raises(DomainError):
            CStarPoly((CStarElement((0j,)),))

    def test_mixed_dims_rejected(self):
        with pytest.raises(DomainError):
            CStarPoly((CStarElement((0j,)), CStarElement((0j, 0j))))

    def test_json_roundtrip(self):
        stream = Stream(302)
        P = CStarPoly(tuple(rand_element(stream, 3, 2.0) for _ in range(3)))
        Q = CStarPoly.from_json(P.to_json())
        assert Q == P

    @pytest.mark.parametrize("obj", [
        [], "1", [[1]], [[1, 0, 0]], [[True, 0]], [[0, False]], [["1", 0]],
        [[None, 0]], [[float("nan"), 0]], [[0, float("inf")]],
    ])
    def test_element_json_rejects_bad_pairs(self, obj):
        # one [re, im] parser for the whole package: booleans and strings
        # are not numbers, and every rejection is a DomainError
        with pytest.raises(DomainError):
            CStarElement.from_json(obj)
        with pytest.raises(DomainError):
            CStarPoly.from_json({"roots": [obj, [[0, 0]]]})
