import math

import pytest

from conftest import polar
from smale_lab.errors import CapacityError, DomainError, PreconditionError
from smale_lab.polycore import evaluate, is_normalized
from smale_lab.rng import Stream
from smale_lab.rootfind import RootFindConfig
from smale_lab.search import (
    SearchConfig,
    critical_points_from_params,
    extremal_family,
    hunt_mlp,
    poly_from_critical_points,
    random_normalized_poly,
    run_hunt,
    search_extremal_ds0,
    search_extremal_s0,
)
from smale_lab.smale import ds0, s0, s_upper_bounds

FAST = SearchConfig(restarts=16, seed=42, max_iter=500)


class TestParametrization:
    def test_poly_is_normalized_by_construction(self):
        stream = Stream(61)
        for _ in range(30):
            cs = [
                polar(stream.uniform_in(0.1, 3.0), stream.uniform_in(0, 2 * math.pi))
                for _ in range(4)
            ]
            p = poly_from_critical_points(cs)
            assert p.coeffs[0] == 0
            assert p.coeffs[1] == 1.0
            assert is_normalized(p)

    def test_critical_points_are_the_parameters(self):
        from smale_lab.polycore import derivative

        cs = [1.0 + 0j, -0.5 + 0.5j]
        p = poly_from_critical_points(cs)
        dp = derivative(p)
        for c in cs:
            assert abs(evaluate(dp, c)) <= 1e-12

    def test_param_decode(self):
        cs = critical_points_from_params([0.0, 0.0, math.log(2.0), math.pi / 2])
        assert cs[0] == pytest.approx(1.0)
        assert cs[1] == pytest.approx(2j)


class TestExtremalSearch:
    def test_quadratic_value_and_grid_oracle(self):
        # independent oracle: s0 is constant 1/2 over the whole quadratic
        # family, checked on a radial/angular grid of critical points
        for r in (0.1, 0.7, 1.3, 9.0):
            for j in range(8):
                c = polar(r, 2 * math.pi * j / 8 + 0.1)
                val = s0(poly_from_critical_points([c])).ratio
                assert val == pytest.approx(0.5, abs=1e-12)
        state = search_extremal_s0(2, SearchConfig(restarts=8, seed=1))
        assert state.objective == pytest.approx(0.5, abs=1e-6)

    def test_cubic(self):
        state = search_extremal_s0(3, FAST)
        assert 2 / 3 - 1e-3 <= state.objective <= 2 / 3 + 1e-6

    def test_quartic(self):
        state = search_extremal_s0(4, SearchConfig(restarts=24, seed=42))
        assert 3 / 4 - 1e-3 <= state.objective <= 3 / 4 + 1e-6

    def test_objective_consistent_with_full_operation(self):
        state = search_extremal_s0(3, FAST)
        assert abs(s0(state.best_poly).ratio - state.objective) <= 1e-10

    def test_restart_table_monotone(self):
        state = search_extremal_s0(3, SearchConfig(restarts=10, seed=9))
        best = -math.inf
        for rec in state.table:
            assert rec.best_so_far >= best - 1e-15
            best = rec.best_so_far
        assert state.restarts_done == 10

    def test_never_exceeds_known_ceilings(self):
        for n in (2, 3, 4, 5):
            state = search_extremal_s0(n, SearchConfig(restarts=8, seed=5))
            ceiling = min(1.0, 4.0 ** ((n - 2) / (n - 1)))
            assert state.objective <= ceiling + 1e-6

    def test_no_finite_restart_raises(self):
        # a collision guard wider than the search region rejects every point
        cfg = SearchConfig(restarts=2, collision_tol=1e9, max_iter=20)
        with pytest.raises(PreconditionError, match="no restart reached a finite"):
            search_extremal_s0(3, cfg)

    def test_zero_restarts_rejected(self):
        with pytest.raises(DomainError):
            SearchConfig(restarts=0)

    def test_zero_max_iter_rejected(self):
        with pytest.raises(DomainError):
            SearchConfig(max_iter=0)

    def test_degree_range(self):
        with pytest.raises(DomainError):
            search_extremal_s0(1, FAST)
        with pytest.raises(DomainError):
            search_extremal_s0(13, FAST)


class TestDualSearch:
    def test_quadratic_forced(self):
        state = search_extremal_ds0(2, SearchConfig(restarts=8, seed=3))
        assert state.objective == pytest.approx(0.5, abs=1e-6)

    def test_cubic_near_third(self):
        state = search_extremal_ds0(3, FAST)
        assert state.objective >= 1.0 / 4 ** 3
        assert abs(state.objective - 1 / 3) <= 2e-2

    def test_degree6_near_sixth(self):
        state = search_extremal_ds0(6, SearchConfig(restarts=24, seed=42))
        assert state.objective >= 1.0 / 4 ** 6
        assert abs(state.objective - 1 / 6) <= 3e-2

    def test_consistent_with_full_operation(self):
        state = search_extremal_ds0(3, FAST)
        assert abs(ds0(state.best_poly).ratio - state.objective) <= 1e-10


class TestExtremalFamily:
    def test_values(self):
        for n in range(2, 11):
            p = extremal_family(n)
            assert s0(p).ratio == pytest.approx((n - 1) / n, abs=1e-9)


class TestHunt:
    def test_degree2_always_empty(self):
        for k in (1, 2, 3):
            assert list(run_hunt(2, k, 150, SearchConfig(seed=11)).certificates) == []

    def test_degree3_scalar_empty(self):
        assert list(run_hunt(3, 1, 300, SearchConfig(seed=12)).certificates) == []

    def test_reproducible(self):
        a = run_hunt(3, 2, 100, SearchConfig(seed=77))
        b = run_hunt(3, 2, 100, SearchConfig(seed=77))
        assert a.stats == b.stats
        assert a.certificates == b.certificates

    def test_jobs_do_not_change_results(self):
        a = run_hunt(3, 2, 60, SearchConfig(seed=78), jobs=1)
        b = run_hunt(3, 2, 60, SearchConfig(seed=78), jobs=4)
        assert a.stats == b.stats
        assert a.certificates == b.certificates

    def test_capacity_guard(self):
        # 4^12 critical elements exceed the product cap
        with pytest.raises(CapacityError):
            run_hunt(5, 12, 1)

    def test_one_enumeration_per_trial_with_the_callers_config(self, monkeypatch):
        # the verdict and the certificate witnesses come from the one set
        # each trial enumerates, so every root find uses the trial's config
        from smale_lab import cstar

        seen = []
        real = cstar.critical_points

        def spy(p, cfg=RootFindConfig()):
            seen.append(cfg.max_iters)
            return real(p, cfg)

        monkeypatch.setattr(cstar, "critical_points", spy)
        res = run_hunt(4, 3, 5, SearchConfig(seed=1), rootcfg=RootFindConfig(max_iters=7))
        assert res.stats.trials_run == 5
        assert seen == [7] * (3 * 5)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_count_below_one_rejected(self, trials):
        with pytest.raises(DomainError):
            run_hunt(2, 2, trials, SearchConfig(seed=1))

    def test_stats_recorded(self):
        res = run_hunt(3, 2, 100, SearchConfig(seed=13))
        assert res.stats.trials_run + res.stats.trials_skipped == 100
        assert 0 < res.stats.worst_min_ratio <= 1.0
        assert res.stats.worst_max_ratio > 0


class TestMlpSweep:
    def test_small_sweeps_pass(self):
        certs, passed = hunt_mlp(2, 40, seed=5)
        assert passed == 40 and certs == []
        certs, passed = hunt_mlp(3, 40, seed=5)
        assert passed == 40 and certs == []

    def test_trial_count_below_one_rejected(self):
        with pytest.raises(DomainError):
            hunt_mlp(3, -2)

    def test_random_normalized_poly_contract(self):
        stream = Stream(880)
        for degree in (2, 3, 5):
            p = random_normalized_poly(degree, stream.derive(degree))
            assert p.degree == degree
            assert is_normalized(p)


class TestBounds:
    def test_upper_bound_table_sanity(self):
        # the three published ceilings are ordered for every degree
        for n in range(2, 13):
            bounds = dict(s_upper_bounds(n))
            assert bounds["conte_fujikawa_lakic"] <= 4.0
            assert bounds["beardon_minda_ng"] <= 4.0
