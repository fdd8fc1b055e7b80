import pytest

from smale_lab import dynamics
from smale_lab.dynamics import (
    VERDICT_CONVERGED,
    VERDICT_CYCLED,
    VERDICT_ESCAPED,
    VERDICT_MAX_ITERS,
    OrbitConfig,
    iterate_orbit,
    mlp_check,
    nonzero_fixed_points,
    orbit,
)
from smale_lab.errors import DomainError, PreconditionError, RootFindError
from smale_lab.polycore import evaluate, from_coeffs
from smale_lab.rng import Stream
from smale_lab.search import random_normalized_poly

QUAD = from_coeffs([0, 1, -0.5])  # z - z^2/2
CUBIC = from_coeffs([0, 1, 0, -1 / 3])  # z - z^3/3


def replay_moduli(p, w0, steps):
    z = complex(w0)
    out = [abs(z)]
    for _ in range(steps):
        z = evaluate(p, z)
        out.append(abs(z))
    return out


class TestOrbit:
    def test_quadratic_converges(self):
        res = orbit(QUAD, 1.0)
        assert res.verdict == VERDICT_CONVERGED
        assert res.ratio == pytest.approx(0.5)
        assert res.final_modulus <= OrbitConfig().near_zero_radius
        # first iterates follow the hand computation 0.5, 0.375, ...
        mods = replay_moduli(QUAD, 1.0, 3)
        assert mods[1] == pytest.approx(0.5)
        assert mods[2] == pytest.approx(0.375)

    def test_monotone_tail(self):
        res = orbit(QUAD, 1.0)
        mods = replay_moduli(QUAD, 1.0, res.trajectory_len)
        tail = mods[-10:]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_fixed_point_zero(self):
        res = orbit(QUAD, 0.0)
        assert res.verdict == VERDICT_CONVERGED
        assert res.trajectory_len == 0

    def test_escape(self):
        res = orbit(from_coeffs([0, 1, 1]), 10.0)
        assert res.verdict == VERDICT_ESCAPED
        assert res.final_modulus >= OrbitConfig().escape_radius

    def test_non_normalized_rejected(self):
        with pytest.raises(PreconditionError):
            orbit(from_coeffs([0, 2, 1]), 1.0)

    def test_converged_final_modulus_invariant(self):
        cfg = OrbitConfig()
        stream = Stream(11)
        for trial in range(40):
            p = random_normalized_poly(2, stream.derive(trial))
            w = -0.5 / p.coeffs[2]  # the critical point
            res = orbit(p, w, cfg)
            if res.verdict == VERDICT_CONVERGED:
                assert res.final_modulus <= max(cfg.zero_tol, cfg.near_zero_radius)


class TestEngine:
    def test_pure_rotation_is_cycle(self):
        verdict, steps, final = iterate_orbit(
            lambda z: 1j * z, abs, lambda a, b: abs(a - b), 1.0 + 0j, OrbitConfig()
        )
        assert verdict == VERDICT_CYCLED
        assert final == pytest.approx(1.0)

    def test_two_cycle(self):
        # x -> 1 - x on reals: {0.25, 0.75} is a 2-cycle
        verdict, _, _ = iterate_orbit(
            lambda z: 1 - z, abs, lambda a, b: abs(a - b), 0.25 + 0j, OrbitConfig()
        )
        assert verdict == VERDICT_CYCLED

    def test_slow_drift_times_out(self):
        cfg = OrbitConfig(max_iters=100)
        verdict, steps, _ = iterate_orbit(
            lambda z: z + 0.001, abs, lambda a, b: abs(a - b), 0.002 + 0j, cfg
        )
        assert verdict == VERDICT_MAX_ITERS
        assert steps == 100

    def test_slow_crawl_to_zero_not_flagged_as_cycle(self):
        # steps shrink below cycle_tol long before the modulus does; the
        # monotone-streak suppression must keep this a convergence verdict
        cfg = OrbitConfig(max_iters=200_000)
        verdict, _, final = iterate_orbit(
            lambda z: z - z * z,
            abs,
            lambda a, b: abs(a - b),
            0.9 + 0j,
            cfg,
        )
        assert verdict == VERDICT_CONVERGED
        assert final <= cfg.near_zero_radius


class TestFixedPoints:
    def test_quadratic_has_none(self):
        assert nonzero_fixed_points(QUAD) == ()

    def test_cubic_with_vanishing_quadratic_term(self):
        # z - z^3/3 - z = -z^3/3: only the origin, so no nonzero fixed points
        assert nonzero_fixed_points(CUBIC) == ()

    def test_explicit_fixed_point(self):
        # z + z^2 - 2 z^3 has P(z) = z at z^2(1 - 2z) = 0, i.e. z = 1/2
        p = from_coeffs([0, 1, 1, -2])
        fps = nonzero_fixed_points(p)
        assert len(fps) == 1
        assert fps[0] == pytest.approx(0.5)

    def test_root_finder_failure_gives_no_margin_test(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RootFindError("injected")

        monkeypatch.setattr(dynamics, "find_roots", fail)
        assert nonzero_fixed_points(from_coeffs([0, 1, 1, -2])) == ()

    def test_unexpected_error_propagates(self, monkeypatch):
        # only the package's own errors mean "cofactor too degenerate"
        def boom(*args, **kwargs):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(dynamics, "find_roots", boom)
        with pytest.raises(ZeroDivisionError):
            nonzero_fixed_points(from_coeffs([0, 1, 1, -2]))

    def test_orbit_into_nonzero_fixed_point_is_not_converged(self):
        # map with a superattracting fixed point at 0.01: orbits near it
        # must not be classified as converging to zero
        target = 0.01

        def step(z):
            return target + 3.0 * (z - target) ** 2

        verdict, _, final = iterate_orbit(
            step,
            abs,
            lambda a, b: abs(a - b),
            0.02 + 0j,
            OrbitConfig(),
            margin_ok=lambda z: 2 * abs(z) <= abs(z - target),
        )
        assert verdict != VERDICT_CONVERGED


class TestMlpCheck:
    def test_quadratic_witness(self):
        ok, res = mlp_check(QUAD)
        assert ok
        assert res.w0 == pytest.approx(1.0)
        assert res.ratio == pytest.approx(0.5)

    def test_cubic_symmetric(self):
        ok, res = mlp_check(CUBIC)
        assert ok
        assert abs(res.w0) == pytest.approx(1.0)
        assert res.ratio == pytest.approx(2 / 3)

    def test_degree_guard(self):
        with pytest.raises(DomainError):
            mlp_check(from_coeffs([0, 1]))

    def test_normalization_guard(self):
        with pytest.raises(PreconditionError):
            mlp_check(from_coeffs([1, 1, 1]))

    def test_seeded_quadratics(self):
        stream = Stream(515)
        for trial in range(50):
            p = random_normalized_poly(2, stream.derive(trial))
            ok, _ = mlp_check(p)
            assert ok

    def test_seeded_cubics(self):
        stream = Stream(516)
        for trial in range(50):
            p = random_normalized_poly(3, stream.derive(trial))
            ok, _ = mlp_check(p)
            assert ok
