
import pytest

from conftest import assert_escapes, assert_in_petal
from smale_lab import dynamics
from smale_lab.dynamics import (
    VERDICT_CONVERGED,
    VERDICT_CYCLED,
    VERDICT_ESCAPED,
    VERDICT_MAX_ITERS,
    OrbitConfig,
    mlp_check,
    orbit,
)
from smale_lab.errors import DomainError, PreconditionError
from smale_lab.polycore import evaluate, from_coeffs
from smale_lab.rng import Stream
from smale_lab.rootfind import critical_points
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


def final_point(p, res):
    """The iterate an OrbitResult ended on, replayed with the same Horner."""
    z = res.w0
    for _ in range(res.trajectory_len):
        z = evaluate(p, z)
    assert abs(z) == res.final_modulus
    return z


class TestOrbit:
    def test_quadratic_converges(self):
        res = orbit(QUAD, 1.0)
        assert res.verdict == VERDICT_CONVERGED
        assert res.ratio == pytest.approx(0.5)
        assert_in_petal(QUAD.coeffs, final_point(QUAD, res))
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
        p = from_coeffs([0, 1, 1])
        res = orbit(p, 2.0)
        assert res.verdict == VERDICT_ESCAPED
        assert res.trajectory_len == 1
        assert_escapes(p.coeffs, final_point(p, res))

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
                assert_in_petal(p.coeffs, final_point(p, res))

    def test_two_petals_decided_in_one_step(self):
        # z - z^3/3 has m = 2: its critical points +-1 each enter a petal
        # after one step, where a threshold on |z| would wait for ~10^6 steps
        for w in (1.0, -1.0):
            res = orbit(CUBIC, w)
            assert res.verdict == VERDICT_CONVERGED
            assert res.trajectory_len == 1
            assert_in_petal(CUBIC.coeffs, final_point(CUBIC, res))

    def test_every_proven_verdict_survives_the_exact_recheck(self):
        stream = Stream(12)
        seen = set()
        for degree in (3, 4, 5):
            for trial in range(20):
                p = random_normalized_poly(degree, stream.derive(degree).derive(trial))
                for w in critical_points(p).roots:
                    res = orbit(p, w)
                    seen.add(res.verdict)
                    if res.verdict == VERDICT_CONVERGED:
                        assert_in_petal(p.coeffs, final_point(p, res))
                    elif res.verdict == VERDICT_ESCAPED:
                        assert_escapes(p.coeffs, final_point(p, res))
        assert {VERDICT_CONVERGED, VERDICT_ESCAPED, VERDICT_CYCLED} <= seen

    def test_oracle_rejects_a_point_outside_the_petal(self):
        # at z = 1 the bound for z - z^2/2 is exactly 1, not <= 1/2
        with pytest.raises(AssertionError):
            assert_in_petal(QUAD.coeffs, 1.0)
        with pytest.raises(AssertionError):
            assert_escapes(from_coeffs([0, 1, 1]).coeffs, 2.9)

    def test_identity_has_no_petal(self):
        ident = from_coeffs([0, 1])
        assert orbit(ident, 0.5).verdict == VERDICT_CYCLED
        assert orbit(ident, 0.0).verdict == VERDICT_CONVERGED


class TestOrbitConfig:
    def test_negative_max_iters_rejected(self):
        with pytest.raises(DomainError):
            OrbitConfig(max_iters=-5)

    def test_zero_budget_only_tests_the_start(self):
        res = orbit(QUAD, 1.0, OrbitConfig(max_iters=0))
        assert (res.verdict, res.trajectory_len) == (VERDICT_MAX_ITERS, 0)
        assert orbit(QUAD, 0.5, OrbitConfig(max_iters=0)).verdict == VERDICT_CONVERGED


class TestEngine:
    def test_pure_rotation_is_cycle(self):
        # z + (i - 1) z^5 maps 1 -> i -> -1 -> -i -> 1 exactly: a 4-cycle,
        # seen when Brent's window has doubled to 4 and confirmed once around
        p = from_coeffs([0, 1, 0, 0, 0, -1 + 1j])
        res = orbit(p, 1.0)
        assert (res.verdict, res.trajectory_len) == (VERDICT_CYCLED, 11)
        assert final_point(p, res) == -1j

    def test_two_cycle(self):
        # z - 2 z^3 swaps 1 and -1
        res = orbit(from_coeffs([0, 1, 0, -2]), 1.0)
        assert (res.verdict, res.trajectory_len) == (VERDICT_CYCLED, 5)

    def test_slow_drift_times_out(self):
        # a nearly parabolic fixed point at -a_2/a_3, 0.005 from 0: the orbit
        # drifts toward it, neither proven nor cycling within the budget
        p = from_coeffs([0, 1, -0.00059 + 0.0048j, -0.071 + 0.958j])
        res = orbit(p, -0.433 - 0.401j, OrbitConfig(max_iters=100))
        assert (res.verdict, res.trajectory_len) == (VERDICT_MAX_ITERS, 100)

    def test_slow_crawl_to_zero_not_flagged_as_cycle(self):
        # z - z^2 creeps into 0 like 1/k; the petal proves convergence long
        # before its steps shrink below the cycle tolerance
        p = from_coeffs([0, 1, -1])
        res = orbit(p, 0.9)
        assert res.verdict == VERDICT_CONVERGED
        assert_in_petal(p.coeffs, final_point(p, res))


class TestFixedPoints:
    def test_orbit_into_nonzero_fixed_point_is_not_converged(self):
        # z + z^2 - 2 z^3 fixes 1/2 with multiplier 1/2: the orbit of 0.45
        # is attracted there, never into a petal at 0
        res = orbit(from_coeffs([0, 1, 1, -2]), 0.45)
        assert res.verdict == VERDICT_CYCLED


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

    def test_orbits_never_run_past_max_iters(self, monkeypatch):
        # z + b z^2 + c z^3 with |b| ~ 0.005: the fixed points 0 and -b/c are
        # 0.005 apart and nearly parabolic, so its critical orbits need
        # 10^4 to 10^6 steps; the first slowly approaches -b/c, the second
        # is proven to fall to 0 after 47,480 steps
        p = from_coeffs([0, 1, -0.0005854506051474576 + 0.004795504765578851j,
                         -0.07101512666452468 + 0.9579384471239101j])
        budgets = []
        real = dynamics.orbit

        def spy(p, w, cfg):
            budgets.append(cfg.max_iters)
            return real(p, w, cfg)

        monkeypatch.setattr(dynamics, "orbit", spy)
        ok, res = mlp_check(p, OrbitConfig(max_iters=10_000))
        assert not ok and res.verdict == VERDICT_MAX_ITERS
        assert max(budgets) == 10_000
        budgets.clear()
        ok, res = mlp_check(p)
        assert ok and res.trajectory_len == 47_480
        assert budgets == [100, 100, 1000, 1000, 10_000, 10_000, 100_000, 100_000]

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
