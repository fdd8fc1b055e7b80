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
