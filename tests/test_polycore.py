import pytest
from hypothesis import given, strategies as st

from conftest import convolve_oracle, horner_oracle, random_roots, scale_conjugate
from smale_lab.errors import DomainError, PreconditionError
from smale_lab.polycore import (
    Poly,
    derivative,
    divided_difference,
    evaluate,
    from_coeffs,
    from_roots,
    is_normalized,
    kth_derivative,
    poly_from_json,
    poly_to_json,
    sum_of_products_derivative,
)
from smale_lab.rng import Stream

finite_complex = st.builds(
    complex,
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)


def assert_coeffs(p, expected, tol=0.0):
    assert len(p.coeffs) == len(expected)
    for got, want in zip(p.coeffs, expected):
        assert abs(got - want) <= tol


class TestFromRoots:
    def test_double_root_at_origin(self):
        assert_coeffs(from_roots([0, 0]), [0, 0, 1])

    def test_difference_of_squares(self):
        assert_coeffs(from_roots([1, -1]), [-1, 0, 1])

    def test_cubic_expansion(self):
        # hand expansion: (z-1)(z-2)(z-3) = z^3 - 6z^2 + 11z - 6
        assert_coeffs(from_roots([1, 2, 3]), [-6, 11, -6, 1], tol=1e-12)

    def test_matches_convolution_oracle(self):
        stream = Stream(101)
        for degree in (2, 5, 9, 12):
            roots = [stream.complex_in_disk(3.0) for _ in range(degree)]
            expected = convolve_oracle(roots)
            got = from_roots(roots)
            for a, b in zip(got.coeffs, expected):
                assert abs(a - b) <= 1e-12 * (1 + abs(b))

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            from_roots([])

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            from_roots([complex(float("nan"), 0)])


class TestEvaluate:
    def test_simple(self):
        p = from_coeffs([-1, 0, 1])  # z^2 - 1
        assert evaluate(p, 2) == 3
        assert evaluate(p, 1j) == -2

    def test_root_of_cubic(self):
        p = from_roots([1, 2, 3])
        assert abs(evaluate(p, 1)) <= 1e-12

    @given(finite_complex)
    def test_matches_power_sum_oracle(self, z):
        p = from_coeffs([3, -2 + 1j, 0, 0.25j, 1.5])
        expected = horner_oracle(p.coeffs, z)
        assert abs(evaluate(p, z) - expected) <= 1e-9 * (1 + abs(expected))


class TestDerivative:
    def test_quadratic(self):
        assert_coeffs(derivative(from_coeffs([-1, 0, 1])), [0, 2])

    def test_cubic(self):
        # power rule term by term: d/dz (z - z^3/3) = 1 - z^2
        assert_coeffs(derivative(from_coeffs([0, 1, 0, -1 / 3])), [1, 0, -1])

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            derivative(from_coeffs([5]))

    def test_cross_check_sum_of_products(self):
        stream = Stream(7)
        roots = [stream.complex_in_disk(3.0) for _ in range(7)]
        p = from_roots(roots)
        dp = derivative(p)
        for _ in range(100):
            z = stream.complex_in_disk(5.0)
            direct = sum_of_products_derivative(roots, z)
            horner = evaluate(dp, z)
            assert abs(direct - horner) <= 1e-10 * (1 + abs(direct))


class TestKthDerivative:
    def test_second_of_square(self):
        assert_coeffs(kth_derivative(from_coeffs([0, 0, 1]), 2), [2])

    def test_second_of_cubic(self):
        assert_coeffs(kth_derivative(from_coeffs([0, 1, 0, -1 / 3]), 2), [0, -2])

    def test_zeroth_is_identity(self):
        p = from_coeffs([-1, 0, 1])
        assert kth_derivative(p, 0) is p

    def test_above_degree_is_zero_poly(self):
        q = kth_derivative(from_coeffs([0, 0, 1]), 3)
        assert q.coeffs == (0j,)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            kth_derivative(from_coeffs([0, 0, 1]), -1)


class TestDividedDifference:
    def test_against_naive_quotient(self):
        stream = Stream(13)
        p = from_roots(random_roots(stream, 6))
        for _ in range(100):
            z = stream.complex_in_disk(5.0)
            w = stream.complex_in_disk(5.0)
            if abs(z - w) < 1e-2:
                continue
            naive = (evaluate(p, z) - evaluate(p, w)) / (z - w)
            dd = divided_difference(p, z, w)
            assert abs(dd - naive) <= 1e-9 * (1 + abs(naive))

    def test_coincident_limit_is_derivative(self):
        p = from_coeffs([0, 1, 0, -1 / 3])
        z = 0.5 + 0.25j
        assert abs(divided_difference(p, z, z) - evaluate(derivative(p), z)) <= 1e-14


class TestJson:
    def test_roundtrip_coeffs(self):
        p = from_coeffs([1, 2, 3])
        assert poly_from_json(poly_to_json(p)).coeffs == p.coeffs

    def test_roundtrip_roots(self):
        p = from_roots([1, -1, 2j])
        q = poly_from_json(poly_to_json(p))
        assert q.roots == p.roots

    def test_bad_pair_names_field(self):
        with pytest.raises(DomainError, match=r"poly\.coeffs\[1\]"):
            poly_from_json({"coeffs": [[0, 0], [1]]})

    def test_both_keys_rejected(self):
        with pytest.raises(DomainError):
            poly_from_json({"coeffs": [[1, 0]], "roots": [[1, 0]]})

    @pytest.mark.parametrize("obj", [
        [], "1", [[1]], [[1, 0, 0]], [[True, 0]], [[0, False]], [["1", 0]],
        [[None, 0]], [[float("nan"), 0]], [[0, float("inf")]],
    ])
    def test_bad_pairs_rejected(self, obj):
        # booleans and strings are not numbers, and every rejection is a
        # DomainError
        for key in ("coeffs", "roots"):
            with pytest.raises(DomainError):
                poly_from_json({key: obj})


class TestPolyInvariants:
    def test_stored_roots_must_have_small_residual(self):
        with pytest.raises(DomainError):
            Poly((1 + 0j, 0j, 1 + 0j), roots=(1 + 0j, 2 + 0j))

    def test_leading_zero_rejected(self):
        with pytest.raises(DomainError):
            Poly((1 + 0j, 0j))

    def test_scale_conjugate_preserves_normalization(self):
        p = from_coeffs([0, 1, 0.5, -0.25])
        for lam in (2.0, -1.5j, 0.3 + 0.4j):
            q = scale_conjugate(p, lam)
            assert is_normalized(q, 1e-12)

    def test_trailing_zeros_trimmed(self):
        p = from_coeffs([1, 2, 0, 0])
        assert p.degree == 1
