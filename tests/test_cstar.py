import itertools
import math

import pytest

from conftest import (
    degree2_higher_order,
    degree2_identity_residual,
    gaussian_int,
    outcome,
    polar,
    sum_of_products_derivative,
    telescoped_difference,
)
from smale_lab import cstar as cstar_module
from smale_lab.cstar import (
    CStarElement,
    CStarPoly,
    CriticalSet,
    _coordinate_terms,
    check_strong_forms,
    cstar_derivative_eval,
    enumerate_critical_set,
)
from smale_lab.errors import DomainError, PreconditionError
from smale_lab.polycore import COINCIDENCE_TOL, evaluate, from_roots
from smale_lab.rng import Stream
from smale_lab.rootfind import RootSet
from smale_lab.smale import ds_at, s_at

def rand_element(st_: Stream, k: int, radius: float = 4.0) -> CStarElement:
    return CStarElement(tuple(st_.complex_in_disk(radius) for _ in range(k)))


def critical_elements(crit) -> list[CStarElement]:
    """Every element of the critical product, in itertools.product order."""
    pools = [rs.roots for rs in crit.per_coordinate]
    return [CStarElement(combo) for combo in itertools.product(*pools)]


def coordinate_polys(P: CStarPoly):
    """The scalar polynomial along each Gelfand point, from its root column."""
    return tuple(from_roots(col) for col in P.columns)


def pointwise_value(P: CStarPoly, z: CStarElement) -> tuple[complex, ...]:
    """P(z) coordinate by coordinate, by evaluate on each coordinate poly."""
    return tuple(evaluate(p, zt) for p, zt in zip(coordinate_polys(P), z.coords))


def quotient_norm(P: CStarPoly, z: CStarElement, w: CStarElement) -> float:
    """||P(z) - P(w)|| / ||z - w|| from the direct differences."""
    pz, pw = pointwise_value(P, z), pointwise_value(P, w)
    num = max(abs(a - b) for a, b in zip(pz, pw))
    return num / max(abs(a - b) for a, b in zip(z.coords, w.coords))


def pooled(*pools) -> CriticalSet:
    """A critical set with the given coordinate pools, in place of the
    critical points P has."""
    sets = tuple(RootSet(tuple(p), (1,) * len(p), (0.0,) * len(p)) for p in pools)
    return CriticalSet(sets, math.prod(len(p) for p in pools))


class TestAlgebra:
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
        (p,) = coordinate_polys(P)
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
            p = coordinate_polys(P)[t]
            from smale_lab.polycore import derivative

            want = evaluate(derivative(p), z.coords[t])
            assert abs(got.coords[t] - want) <= 1e-10 * (1 + abs(want))

    def test_dim_mismatch(self):
        # a zip over the coordinates would drop z's extra coordinate, or
        # P's when z is the shorter one
        P = CStarPoly((CStarElement((0j, 0j)), CStarElement((1 + 0j, 2 + 0j))))
        for z in (CStarElement((3 + 0j,)), CStarElement((3 + 0j, 3 + 0j, 3 + 0j))):
            with pytest.raises(DomainError):
                cstar_derivative_eval(P, z)
            with pytest.raises(DomainError):
                check_strong_forms(P, z)

    def test_coordinate_terms_match_the_oracle_bit_for_bit(self):
        # P'(z_t) in sum_of_products_derivative's order and every row in the
        # telescoped order, .hex()-equal, with pool points 1e-3 and 1e-8
        # from z_t where the telescoped sum matters
        def hexes(c):
            return c.real.hex(), c.imag.hex()

        stream = Stream(94)
        count = 0
        for n in range(2, 13):
            for k in range(1, 5):
                st_ = stream.derive(n).derive(k)
                P = CStarPoly(tuple(rand_element(st_, k, 2.0) for _ in range(n)))
                z = rand_element(st_, k, 3.0)
                crit = enumerate_critical_set(P)
                for col, zt, rs in zip(P.columns, z.coords, crit.per_coordinate):
                    near = [zt + polar(r, 2 * math.pi * st_.uniform()) for r in (1e-3, 1e-8)]
                    pool = list(rs.roots) + near
                    deriv, diffs = _coordinate_terms(col, zt, pool)
                    assert hexes(deriv) == hexes(sum_of_products_derivative(col, zt))
                    assert len(diffs) == len(pool)
                    for diff, w in zip(diffs, pool):
                        assert hexes(diff) == hexes(telescoped_difference(col, zt, w))
                        count += 1
        assert count > 500


class TestCriticalSet:
    def test_degree2_single_element(self):
        stream = Stream(91)
        a, b = rand_element(stream, 4, 2.0), rand_element(stream, 4, 2.0)
        crit = enumerate_critical_set(CStarPoly((a, b)))
        assert crit.product_size == math.prod(len(rs.roots) for rs in crit.per_coordinate) == 1
        (w,) = critical_elements(crit)
        for t in range(4):
            assert abs(w.coords[t] - (a.coords[t] + b.coords[t]) / 2) <= 1e-10

    def test_degree3_dim2_product(self):
        stream = Stream(92)
        roots = tuple(rand_element(stream, 2, 2.0) for _ in range(3))
        crit = enumerate_critical_set(CStarPoly(roots))
        assert crit.product_size == math.prod(len(rs.roots) for rs in crit.per_coordinate) == 4
        assert len(critical_elements(crit)) == 4

    def test_k1_classical_count(self):
        stream = Stream(93)
        roots = tuple(CStarElement((stream.complex_in_disk(2.0),)) for _ in range(5))
        crit = enumerate_critical_set(CStarPoly(roots))
        assert sum(crit.per_coordinate[0].multiplicities) == 4


def _elementwise_check(P, z, crit=None):
    """(min, max, strong flags) by recomputing every term for each element
    of the critical product; crit defaults to P's critical set."""
    slack = cstar_module.CONJ_SLACK
    columns = [[r.coords[t] for r in P.roots] for t in range(P.dim)]
    dval = CStarElement(tuple(
        sum_of_products_derivative(col, zt) for col, zt in zip(columns, z.coords)
    ))
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
    min_ratio, max_ratio = math.inf, -math.inf
    for w in critical_elements(crit or enumerate_critical_set(P)):
        dist = max(abs(a - b) for a, b in zip(z.coords, w.coords))
        if dist <= COINCIDENCE_TOL * max(point_scale, w.norm()):
            raise PreconditionError("z coincides with a critical element")
        diffs = [
            telescoped_difference(col, zt, wt)
            for col, zt, wt in zip(columns, z.coords, w.coords)
        ]
        ratio = max(abs(d) for d in diffs) / (dist * dnorm)
        min_ratio = min(min_ratio, ratio)
        max_ratio = max(max_ratio, ratio)
        strong_smale = strong_smale or strong_holds(diffs, w, sharp_sq, False)
        strong_dual = strong_dual or strong_holds(diffs, w, dual_sq, True)
    return min_ratio, max_ratio, strong_smale, strong_dual


def _verdict(P, z, crit=None):
    v = check_strong_forms(P, z, crit)
    return v.min_ratio, v.max_ratio, v.strong_smale_pass, v.strong_dual_pass


class TestCheckSmale:
    def test_degree2_equalities(self):
        stream = Stream(95)
        for trial in range(50):
            st_ = stream.derive(trial)
            k = (trial % 4) + 1
            a, b, z = (rand_element(st_, k) for _ in range(3))
            try:
                v = check_strong_forms(CStarPoly((a, b)), z)
            except PreconditionError:
                continue
            assert v.min_ratio == pytest.approx(0.5, abs=1e-9)
            assert v.max_ratio == pytest.approx(0.5, abs=1e-9)
            assert v.sharp_pass and v.dual_pass
            assert v.strong_smale_pass and v.strong_dual_pass

    def test_k1_reduction_to_scalar(self):
        stream = Stream(96)
        roots = [stream.complex_in_disk(2.0) for _ in range(4)]
        P = CStarPoly(tuple(CStarElement((r,)) for r in roots))
        p = from_roots(roots)
        for _ in range(20):
            z = stream.complex_in_disk(4.0)
            try:
                v = check_strong_forms(P, CStarElement((z,)))
                lo = s_at(p, z).ratio
                hi = ds_at(p, z).ratio
            except PreconditionError:
                continue
            assert v.min_ratio == pytest.approx(lo, rel=1e-12, abs=1e-12)
            assert v.max_ratio == pytest.approx(hi, rel=1e-12, abs=1e-12)

    def test_exhaustive_enumeration_is_oracle(self, monkeypatch):
        # the per-coordinate tables give exactly (==) what the element-wise
        # loop over the full product gives, and raise PreconditionError
        # exactly when the loop does.  Besides seeded draws with their own
        # critical sets there are Gaussian-integer roots, points and pools,
        # whose tables tie in A and in B across rows and coordinates, and
        # planted pools: z in every coordinate (raises), z within or beyond
        # COINCIDENCE_TOL * |w| of a point of size 1e6 in every coordinate
        # (raises, does not), and z in coordinate 0 only, where B = 0 in
        # one row but no element coincides (does not).  The min/max agree
        # with the direct differences P(z) - P(w) away from the point of size
        # 1e6, where those cancel; a negative comparison
        # slack then makes the strong flags fail often, so both of their
        # values occur
        cases = []
        stream = Stream(97)
        for n in range(2, 6):
            for k in range(1, 5):
                for trial in range(6):
                    st_ = stream.derive(n).derive(k).derive(trial)
                    P = CStarPoly(tuple(rand_element(st_, k, 2.0) for _ in range(n)))
                    z = rand_element(st_, k, 3.0)
                    cases.append((P, z, None, None))
                    pools = [list(rs.roots) for rs in enumerate_critical_set(P).per_coordinate]
                    if k > 1 and trial < 2:
                        on_z = [p + [zt] for p, zt in zip(pools, z.coords)]
                        cases.append((P, z, pooled(*on_z), True))
                        planted = [pools[0] + [z.coords[0]]] + pools[1:]
                        cases.append((P, z, pooled(*planted), False))
                        far = CStarElement((1e6 + 0j,) + z.coords[1:])
                        for delta, coincides in ((0.5e-6, True), (2e-6, False)):
                            near = [
                                p + [zt + delta * 1j ** t]
                                for t, (p, zt) in enumerate(zip(pools, far.coords))
                            ]
                            cases.append((P, far, pooled(*near), coincides))
                    P, z = (
                        CStarPoly(tuple(
                            CStarElement(tuple(gaussian_int(st_) for _ in range(k)))
                            for _ in range(n)
                        )),
                        CStarElement(tuple(gaussian_int(st_) for _ in range(k))),
                    )
                    size = 1 + trial % 4
                    pools = [[gaussian_int(st_, -2, 2) for _ in range(size)] for _ in range(k)]
                    cases.append((P, z, pooled(*pools), None))
        # z coincides only through |w_0| > ||z||: coordinate 0 sits 8 ulps
        # inside w_0 = 1e6, and coordinate 1 exactly COINCIDENCE_TOL * w_0
        # from its witness, which is beyond COINCIDENCE_TOL * ||z||
        w0 = 1e6
        z = CStarElement((w0 - 8 * 2.0 ** -33, 0j))
        tol = COINCIDENCE_TOL * w0
        assert tol > COINCIDENCE_TOL * z.norm()
        P = CStarPoly(tuple(rand_element(stream, 2, 2.0) for _ in range(3)))
        cases.append((P, z, pooled([w0, w0 + 1.0], [tol, 1.0]), True))
        cases = [case for case in cases if cstar_derivative_eval(*case[:2]).norm() > 1e-6]
        flags, raised = set(), set()
        for slack in (None, -0.25):
            if slack is not None:
                monkeypatch.setattr(cstar_module, "CONJ_SLACK", slack)
            for P, z, crit, coincides in cases:
                got = outcome(_verdict, P, z, crit)
                assert got == outcome(_elementwise_check, P, z, crit)
                if coincides is not None:
                    assert (got is PreconditionError) == coincides
                if got is PreconditionError:
                    raised.add(coincides)
                    continue
                if slack is not None:
                    flags.update(got[2:])
                elif z.norm() < 1e6:
                    dnorm = cstar_derivative_eval(P, z).norm()
                    ratios = [
                        quotient_norm(P, z, w) / dnorm
                        for w in critical_elements(crit or enumerate_critical_set(P))
                    ]
                    assert got[0] == pytest.approx(min(ratios), rel=1e-9)
                    assert got[1] == pytest.approx(max(ratios), rel=1e-9)
        assert flags == {True, False}
        assert None in raised  # an unplanted Gaussian-integer z on an element

    def test_min_over_product_le_min_over_subset(self):
        stream = Stream(98)
        roots = tuple(rand_element(stream, 3, 2.0) for _ in range(4))
        P = CStarPoly(roots)
        z = rand_element(stream, 3, 3.0)
        crit = enumerate_critical_set(P)
        dval = cstar_derivative_eval(P, z).norm()

        def ratio(w):
            return quotient_norm(P, z, w) / dval

        full_min = min(ratio(w) for w in critical_elements(crit))
        # coordinate-greedy subset: pick per-coordinate best independently
        greedy = []
        for t in range(3):
            pool = crit.per_coordinate[t].roots
            zt = z.coords[t]
            pt = coordinate_polys(P)[t]
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
