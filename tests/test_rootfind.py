import pytest

from conftest import match_multisets, random_roots
from smale_lab.errors import DomainError
from smale_lab.polycore import evaluate, from_coeffs, from_roots
from smale_lab.rng import Stream
from smale_lab.rootfind import RootFindConfig, critical_points, find_roots


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


def test_cluster_tol_override():
    # two roots separated by 1e-4 stay distinct at the default tolerance
    p = from_roots([0.5, 0.5 + 1e-4])
    rs = find_roots(p)
    assert len(rs.roots) == 2
    # but merge when the caller asks for coarse clustering
    merged = find_roots(p, RootFindConfig(cluster_tol=1e-3))
    assert len(merged.roots) == 1
    assert merged.multiplicities == (2,)


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
