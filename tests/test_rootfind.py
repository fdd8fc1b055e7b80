import cmath
import math

import pytest

from conftest import match_multisets, random_roots
from smale_lab.errors import DomainError, RootFindError
from smale_lab.polycore import evaluate, from_coeffs, from_roots
from smale_lab.rng import Stream
from smale_lab.polycore import Poly, derivative
from smale_lab.rootfind import critical_points, critical_points_of_roots, find_roots
from smale_lab.verify import XC, _divide, _expand


def test_linear():
    rs = find_roots(from_coeffs([0, 2]))  # 2z
    assert rs.roots == (0j,)
    assert rs.multiplicities == (1,)


def test_difference_of_squares():
    rs = find_roots(from_coeffs([1, 0, -1]))  # 1 - z^2
    assert match_multisets(rs.expanded(), [1, -1], 1e-12) <= 1e-12


def test_quadratic_formula_oracle():
    # 3z^2 - 8z + 4: roots (8 +- sqrt(64 - 48)) / 6 = {2/3, 2}
    rs = find_roots(from_coeffs([4, -8, 3]))
    assert match_multisets(rs.expanded(), [2 / 3, 2], 1e-12) <= 1e-12


def test_critical_points_cubic():
    rs = critical_points(from_coeffs([0, 1, 0, -1 / 3]))  # p' = 1 - z^2
    assert match_multisets(rs.expanded(), [1, -1], 1e-12) <= 1e-12


def test_critical_point_of_quadratic_is_midpoint():
    a, b = 0.3 - 2j, -1.5 + 0.25j
    rs = critical_points(from_roots([a, b]))
    assert len(rs.roots) == 1
    assert abs(rs.roots[0] - (a + b) / 2) <= 1e-12


def test_double_critical_point():
    rs = critical_points(from_coeffs([0, 0, 0, 1]))  # p' = 3z^2
    assert sum(rs.multiplicities) == 2
    assert len(rs.roots) == 1
    assert abs(rs.roots[0]) <= 1e-7


def test_quadratic_takes_the_closed_form(monkeypatch):
    # degree 2 never iterates; a cubic's critical points are such roots
    from smale_lab import rootfind

    def no_sweeps(*args):
        raise AssertionError("degree 2 ran Aberth sweeps")

    monkeypatch.setattr(rootfind, "_aberth_sweeps", no_sweeps)
    rs = critical_points(from_coeffs([0, 1, 0, -1 / 3]))  # p' = 1 - z^2
    assert rs.roots == (-1 + 0j, 1 + 0j)
    assert rs.residuals == (0.0, 0.0)


@pytest.mark.parametrize("coeffs, root", [([4, 4, 1], -2), ([0, 0, 1], 0)],
                         ids=["z2+4z+4", "z2"])
def test_exact_double_root_in_closed_form(coeffs, root):
    # the discriminant is exactly 0, so both roots are exact
    rs = find_roots(from_coeffs(coeffs))
    assert rs.roots == (complex(root),)
    assert rs.multiplicities == (2,)
    assert rs.residuals == (0.0,)


def test_close_quadratic_roots_cluster_as_one_double_root():
    r = 0.5 + 0.25j
    s = r + 1e-9
    rs = find_roots(from_coeffs([r * s, -(r + s), 1]))
    assert rs.multiplicities == (2,)
    assert abs(rs.roots[0] - (r + s) / 2) <= 1e-8


def test_quadratic_overflow_is_a_root_find_error():
    # b^2 overflows: the closed form gives an infinite root, which is a
    # RootFindError, never an OverflowError
    with pytest.raises(RootFindError, match="diverged"):
        find_roots(from_coeffs([1, 1e200, 1]))


def test_quadratic_overflow_names_no_start_circle():
    # degree 2 starts from no circle: the message names the closed form
    with pytest.raises(RootFindError, match="closed-form quadratic") as info:
        find_roots(from_coeffs([1, 1e200, 1]))
    assert "start circle" not in str(info.value)


def test_degree_cap_and_preconditions():
    with pytest.raises(DomainError):
        find_roots(from_coeffs([1]))
    with pytest.raises(DomainError):
        critical_points(from_coeffs([0, 1]))


def test_roundtrip_random_root_sets():
    stream = Stream(2024)
    for degree in range(2, 13):
        for trial in range(8):
            roots = random_roots(stream.derive(degree * 100 + trial), degree)
            p = from_roots(roots)
            rs = find_roots(p)
            assert sum(rs.multiplicities) == degree
            worst = match_multisets(rs.expanded(), roots, tol=1e-6)
            scale = max(abs(r) for r in roots) + 1.0
            assert worst <= 1e-8 * scale


def test_residual_invariant():
    stream = Stream(77)
    for trial in range(30):
        roots = random_roots(stream.derive(trial), 8)
        p = from_roots(roots)
        rs = find_roots(p)
        bound = 1e-8 * (1 + p.coeff_scale)
        assert all(res <= bound for res in rs.residuals)


def test_wilkinson_lite():
    # roots 1..10 scaled by 1/10; documents the conditioning limit
    roots = [k / 10 for k in range(1, 11)]
    rs = find_roots(from_roots(roots))
    assert match_multisets(rs.expanded(), roots, tol=1e-4) <= 1e-6


def test_full_multiplicity_cluster():
    p = from_coeffs([0] * 12 + [1])  # z^12
    rs = find_roots(p)
    assert sum(rs.multiplicities) == 12
    assert len(rs.roots) == 1
    assert abs(rs.roots[0]) <= 1e-6


def test_close_roots_stay_distinct():
    # two roots separated by 1e-4 stay distinct at the clustering tolerance
    rs = find_roots(from_roots([0.5, 0.5 + 1e-4]))
    assert len(rs.roots) == 2


def test_clustering_follows_the_roots_not_the_cauchy_bound():
    # P' has Cauchy bound 2.5e6, and clustering within 1e-7 of it (0.25)
    # merged distinct critical points, the closest 0.15 apart, into a mean
    # that fails the residual check
    st = Stream(45, 5)
    p = from_roots([st.complex_in_disk(2.0) for _ in range(30)])
    assert critical_points(p).multiplicities == (1,) * 29


def test_diverged_iteration_is_a_root_find_error():
    # roots at |z| ~ 2.15, but the start circle has the Cauchy radius 1e20,
    # where the iterates overflow
    with pytest.raises(RootFindError, match="diverged") as info:
        find_roots(from_coeffs([1] + [0] * 59 + [1e-20]))
    assert len(info.value.roots) == 60


def test_order_is_lexicographic():
    rs = find_roots(from_roots([1, -1, 1j, -1j]))
    order = [(r.real, r.imag) for r in rs.roots]
    assert order == sorted(order)


def test_roots_satisfy_residual_bound_vs_scale():
    stream = Stream(5150)
    for trial in range(20):
        roots = random_roots(stream.derive(trial), 6)
        p = from_roots(roots)
        for r in find_roots(p).roots:
            assert abs(evaluate(p, r)) <= 1e-8 * (1 + p.coeff_scale)


def test_far_critical_point_accepted_by_relative_residual():
    # each of these has one critical point at |r| ~ 34-74, where the
    # absolute residual of a converged root exceeds 1e-8 * (1 + scale)
    from smale_lab.polycore import derivative
    from smale_lab.search import random_normalized_poly

    for s in (1007, 1566, 2232):
        p = random_normalized_poly(8, Stream(s))
        rs = critical_points(p)
        assert sum(rs.multiplicities) == 7
        dp = derivative(p)
        ddp = derivative(dp)
        for r in rs.roots:
            step = abs(evaluate(dp, r) / evaluate(ddp, r))
            assert step <= 1e-12 * max(1.0, abs(r))


def test_root_form_takes_the_secular_path():
    # a Poly with stored roots gets its critical points from them: the same
    # RootSet as critical_points_of_roots, close to the coefficient path's
    st = Stream(46, 5)
    roots = tuple(st.complex_in_disk(2.0) for _ in range(7))
    p = from_roots(roots)
    rs = critical_points(p)
    assert rs == critical_points_of_roots(roots)
    coeff = critical_points(Poly(p.coeffs))
    assert rs.multiplicities == coeff.multiplicities == (1,) * 6
    assert match_multisets(rs.roots, coeff.roots, 1e-10) <= 1e-10


def test_root_form_backward_error_is_exact_at_degree_30():
    # |P'(x)| in exact rationals at each float critical point, relative to
    # the scale of its terms, sum_j prod_{i != j} |x - a_i|
    st = Stream(47, 5)
    roots = [st.complex_in_disk(2.0) for _ in range(30)]
    rs = critical_points_of_roots(tuple(roots))
    assert rs.multiplicities == (1,) * 29
    cs = _expand([XC.of(a) for a in roots])
    worst = 0.0
    for x in rs.roots:
        b, _ = _divide(cs, XC.of(x))
        dp = math.sqrt(float(_divide(b, XC.of(x))[1].abs2()))
        dists = [abs(x - a) for a in roots]
        scale = sum(math.prod(dists[:j] + dists[j + 1:]) for j in range(30))
        worst = max(worst, dp / scale)
    assert worst < 1e-14


@pytest.mark.parametrize("roots, want", [
    ([1 + 1j] * 5, [(1 + 1j, 4)]),  # all equal
    ([0, 0, 1], [(0, 1), (2 / 3, 1)]),  # one double root
    ([0, 0, 0, 1, 1], [(0, 2), (0.6, 1), (1, 1)]),  # a triple plus a double
])
def test_repeated_roots_in_closed_form(roots, want):
    # P = x^3 (x - 1)^2: P' = x^2 (x - 1)(5x - 3)
    rs = critical_points(from_roots(roots))
    assert rs.multiplicities == tuple(m for _, m in want)
    for got, (w, _) in zip(rs.roots, want):
        assert abs(got - w) <= 1e-15
    assert sum(rs.multiplicities) == len(roots) - 1


def test_repeated_roots_beside_the_secular_iteration():
    # a triple and a double root keep their points exactly; the other four
    # critical points, found by iteration, match the coefficient path
    roots = [0.5j] * 3 + [1 - 1j] * 2 + [2, -1.5 + 0.25j, 0.3 - 1.2j]
    rs = critical_points_of_roots(tuple(complex(r) for r in roots))
    found = dict(zip(rs.roots, zip(rs.multiplicities, rs.residuals)))
    assert found[0.5j] == (2, 0.0)
    assert found[1 - 1j] == (1, 0.0)
    assert sum(rs.multiplicities) == 7
    oracle = find_roots(derivative(Poly(from_roots(roots).coeffs))).expanded()
    assert match_multisets(rs.expanded(), oracle, 1e-6) <= 1e-6


def _iterated(monkeypatch, roots):
    """critical_points_of_roots with the closed form disabled: its points
    are not finite, so the secular iteration takes over."""
    from smale_lab import rootfind

    with monkeypatch.context() as m:
        m.setattr(rootfind, "_closed_form_points", lambda roots, rho: [complex("nan")] * (len(roots) - 1))
        return critical_points_of_roots(roots)


@pytest.mark.parametrize("degree", [3, 4])
def test_three_and_four_roots_take_the_closed_form(degree, monkeypatch):
    from smale_lab import rootfind

    def no_sweeps(*args):
        raise AssertionError(f"degree {degree} ran Aberth sweeps")

    monkeypatch.setattr(rootfind, "_aberth_sweeps", no_sweeps)
    st = Stream(48, degree)
    for _ in range(200):
        rs = critical_points_of_roots(tuple(st.complex_in_disk(2.0) for _ in range(degree)))
        assert sum(rs.multiplicities) == degree - 1


@pytest.mark.parametrize("degree", [3, 4])
def test_closed_form_matches_the_iteration(degree, monkeypatch):
    # a census: same multiplicities, points within 1e-14 of the root spread
    st = Stream(49, degree)
    for _ in range(2000):
        roots = tuple(st.complex_in_disk(2.0) for _ in range(degree))
        rs, it = critical_points_of_roots(roots), _iterated(monkeypatch, roots)
        assert rs.multiplicities == it.multiplicities
        spread = max(abs(a - b) for a in roots for b in roots)
        assert max(abs(x - y) for x, y in zip(rs.roots, it.roots)) <= 1e-14 * spread


@pytest.mark.parametrize("bad", [
    lambda points: [points[0] + 0.1] + points[1:],
    lambda points: [complex(math.inf, k) for k in range(len(points))],
], ids=["off", "inf"])
@pytest.mark.parametrize("degree", [3, 4])
def test_bad_closed_form_point_falls_back_to_the_iteration(degree, bad, monkeypatch):
    # a closed-form point moved off P' = 0 fails the backward-error test,
    # and points at infinity fail the finiteness check, so the result is
    # the iteration's, bit for bit
    from smale_lab import rootfind

    closed_form = rootfind._closed_form_points

    def planted(roots, rho):
        return bad(closed_form(roots, rho))

    st = Stream(50, degree)
    roots = tuple(st.complex_in_disk(2.0) for _ in range(degree))
    want = _iterated(monkeypatch, roots)
    monkeypatch.setattr(rootfind, "_closed_form_points", planted)
    assert critical_points_of_roots(roots) == want


def test_repeated_root_among_three_distinct_iterates(monkeypatch):
    # the closed form takes only distinct roots: (1, 1, 2, 3) iterates once,
    # and keeps its exact point at the double root
    from smale_lab import rootfind

    calls = []
    sweeps = rootfind._aberth_sweeps
    monkeypatch.setattr(rootfind, "_aberth_sweeps", lambda *a: calls.append(1) or sweeps(*a))
    roots = (1 + 0j, 1 + 0j, 2 + 0j, 3 + 0j)
    rs = critical_points_of_roots(roots)
    assert calls == [1]
    assert dict(zip(rs.roots, rs.multiplicities))[1 + 0j] == 1
    oracle = find_roots(derivative(Poly(from_roots(roots).coeffs))).expanded()
    assert match_multisets(rs.expanded(), oracle, 1e-12) <= 1e-12


def _cubic(r1, r2, r3):
    """(a, b, c) of t^3 + a t^2 + b t + c = (t - r1)(t - r2)(t - r3)."""
    return complex(-(r1 + r2 + r3)), complex(r1 * r2 + r1 * r3 + r2 * r3), complex(-r1 * r2 * r3)


@pytest.mark.parametrize("roots, tol", [
    ((1, 2, -3), 1e-15),
    ((1j, -1j, 2), 1e-15),
    ((0.5 + 0.25j, -1 + 1j, 0.3 - 2j), 1e-14),
    ((1, 1, -2), 1e-15),  # discriminant exactly 0: a double root
    ((1, 1 + 1e-7, -2 - 1e-7), 1e-8),  # near-zero discriminant: tol ~ eps / gap
])
def test_cubic_formula_known_roots(roots, tol):
    from smale_lab.rootfind import _cubic_roots

    got = _cubic_roots(*_cubic(*roots))
    assert match_multisets(got, [complex(r) for r in roots], tol) <= tol


def test_cubic_formula_triple_root_is_exact():
    # p = q = 0: the zero cube root branch
    from smale_lab.rootfind import _cubic_roots

    assert _cubic_roots(*_cubic(2, 2, 2)) == [2 + 0j] * 3
    assert _cubic_roots(0j, 0j, 0j) == [0j] * 3


def test_cubic_formula_overflow_is_not_finite():
    from smale_lab.rootfind import _cubic_roots

    got = _cubic_roots(0j, 0j, complex(1e308, 1e308) * 4)
    assert not any(math.isfinite(abs(z)) for z in got)


def test_newton_step_refines_a_simple_point():
    from smale_lab.rootfind import _newton_once, _secular_correction

    s = 3 ** -0.5  # P = x^3 - x: P' = 3x^2 - 1
    moved, kept = _newton_once(_secular_correction((-1 + 0j, 0j, 1 + 0j), ()), [s + 1e-6, -s])
    assert abs(moved - s) <= 1e-11
    assert kept == -s


def test_newton_step_longer_than_half_the_gap_is_refused():
    from smale_lab.rootfind import _newton_once, _secular_correction

    s = 3 ** -0.5
    xs = [s + 1e-6, s + 2e-6]  # each step is about 1e-6, the gap 1e-6
    assert _newton_once(_secular_correction((-1 + 0j, 0j, 1 + 0j), ()), xs) == xs


@pytest.mark.parametrize("i", range(6, 12))
def test_small_square_keeps_its_triple_critical_point(i, monkeypatch):
    # P' = 4 (x - c)^3 up to input rounding, which splits the triple point
    # by about 4e-10 (60-digit check).  The Newton step at such a point is
    # rounding noise far longer than the closed-form points' gaps; taken,
    # it splits them past the clustering tolerance
    from smale_lab import rootfind

    monkeypatch.setattr(rootfind, "_aberth_sweeps", None)
    c = cmath.exp(1j * (0.3 + 0.15 * i))
    k = 1e-3 * cmath.exp(0.4j * i)
    rs = critical_points_of_roots(tuple(c + k * 1j ** j for j in range(4)))
    assert rs.multiplicities == (3,)
    assert abs(rs.roots[0] - c) <= 1e-9
