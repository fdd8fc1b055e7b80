import dataclasses
import json
import math
import re
import sys

import pytest

from conftest import convolve_oracle, polar, search_objective, set_cpus
from smale_lab import polycore, rootfind, search, simplex
from smale_lab.cstar import CStarElement, CStarPoly, check_strong_forms
from smale_lab.dynamics import OrbitConfig, mlp_check
from smale_lab.errors import (
    DomainError,
    PreconditionError,
    RootFindError,
)
from smale_lab.polycore import (
    POLY_RESIDUAL_TOL,
    Poly,
    derivative,
    evaluate,
    from_roots,
    is_normalized,
)
from smale_lab.rng import Stream
from smale_lab.search import (
    SearchConfig,
    _normalized_coeffs,
    critical_points_from_params,
    extremal_family,
    hunt_mlp,
    poly_from_critical_points,
    random_normalized_poly,
    run_hunt,
    search_extremal_ds0,
    search_extremal_s0,
)
from smale_lab.smale import _normalized_witnesses, ds0, quotient_moduli, s0, s_upper_bounds
from smale_lab.verify import exact_normalized_ratios

FAST = SearchConfig(restarts=16, seed=42)


def builder_oracle_sets():
    """200 seeded critical-point sets: 1-11 points, each modulus drawn
    log-uniformly from [1e-2, 1e2]."""
    stream = Stream(71)
    for trial in range(200):
        st = stream.derive(trial)
        yield [
            polar(math.exp(st.uniform_in(math.log(1e-2), math.log(1e2))),
                  st.uniform_in(0.0, 2.0 * math.pi))
            for _ in range(1 + trial % 11)
        ]


def chained_builder(cs):
    """The coefficients of the three-Poly chain the one-pass builder
    replaced, written out: expand prod (z - c_j), divide P' by its value at
    0, integrate from 0."""
    q = convolve_oracle(cs)
    dp = [1.0 + 0.0j] + [c / q[0] for c in q[1:]]
    return [0.0 + 0.0j] + [c / (i + 1) for i, c in enumerate(dp)]


def chained_extremes(cs):
    """(min, max) over cs of |P(c)/c| for the normalized P whose critical
    points are cs, by the chain the one-pass objective replaced, written out:
    chained_builder's coefficients, Poly's checks, one Horner loop per point.
    Raises the DomainError that chain raised."""
    if convolve_oracle(cs)[0] == 0:
        raise DomainError("critical points must be nonzero: their product is 0")
    coeffs = list(Poly(tuple(chained_builder(cs))).coeffs[1:])
    vals = []
    for c in cs:
        q = coeffs[-1]
        for b in coeffs[-2::-1]:
            q = q * c + b
        vals.append(abs(q))
    return min(vals), max(vals)


def chained_objective(x, maximize):
    """The search objective as the chain c_1 = 1 followed by
    critical_points_from_params -> collision check -> chained_extremes,
    signed for minimization."""
    cs = [1.0 + 0.0j, *critical_points_from_params(x)]
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if abs(cs[i] - cs[j]) < search._COLLISION_TOL:
                return math.inf
    smin, smax = chained_extremes(cs)
    return -1.0 * smin if maximize else smax


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

    def test_builder_matches_the_chain_bitwise(self):
        chain_rejected = 0
        for cs in builder_oracle_sets():
            p = poly_from_critical_points(cs)
            assert list(p.coeffs) == chained_builder(cs)
            # P'(c) is small on the scale of its Horner terms at c
            dp = derivative(p)
            for c in cs:
                terms = sum(abs(b) * abs(c) ** i for i, b in enumerate(dp.coeffs))
                assert abs(evaluate(dp, c)) <= POLY_RESIDUAL_TOL * terms
            try:
                from_roots(cs)
            except DomainError:
                chain_rejected += 1
        # from_roots judges each stored root's residual on the scale of its
        # Horner terms (root_residual_bounds), so the chain accepts every set
        # the builder does
        assert chain_rejected == 0

    def test_float_quotients_match_the_exact_ratios(self):
        """_normalized_witnesses, the objective's chain (which the objective
        equals bit for bit) and mlp_check's ratio each lie within 1e-12
        relative of the exact rational |P(w) / w|."""

        def close(got, ratio2):
            assert got == pytest.approx(math.sqrt(ratio2), rel=1e-12)

        stream = Stream(2718)
        polys = [
            random_normalized_poly(n, stream.derive(n).derive(trial))
            for n in range(2, 13)
            for trial in range(10)
        ]
        for cs in builder_oracle_sets():
            lo2, hi2 = exact_normalized_ratios([0j, *_normalized_coeffs(cs)], cs)
            lo, hi = chained_extremes(cs)
            close(lo, lo2)
            close(hi, hi2)
            polys.append(poly_from_critical_points(cs))
        for p in polys:
            coeffs = list(p.coeffs)
            for wit in _normalized_witnesses(p):
                close(wit.quotient, exact_normalized_ratios(coeffs, [wit.w])[0])
            _, res = mlp_check(p, OrbitConfig(max_iters=100))
            close(res.ratio, exact_normalized_ratios(coeffs, [res.w0])[0])

    def test_no_poly_and_no_divided_difference_per_objective_call(self, monkeypatch):
        # the spies see only this process: keep every restart in it
        set_cpus(monkeypatch, 1)
        built = []
        post_init = polycore.Poly.__post_init__

        def counted_post_init(poly):
            built.append(poly)
            post_init(poly)

        monkeypatch.setattr(polycore.Poly, "__post_init__", counted_post_init)
        calls = []
        nelder_mead = simplex.nelder_mead

        def counted_nelder_mead(func, x0, **kwargs):
            def counted(x):
                calls.append(x)
                return func(x)

            return nelder_mead(counted, x0, **kwargs)

        monkeypatch.setattr(simplex, "nelder_mead", counted_nelder_mead)
        # divided_difference is matched by code object, so a call through
        # any module's imported name is counted
        dd_code = polycore.divided_difference.__code__
        dd_calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is dd_code:
                dd_calls.append(frame)

        sys.setprofile(profile)
        try:
            state = search_extremal_s0(3, SearchConfig(restarts=2, seed=1))
        finally:
            sys.setprofile(None)
        assert len(calls) > 100
        assert dd_calls == []
        # the reported best_poly is the only Poly a search builds
        assert len(built) == 1
        assert built[0] is state.best_poly

    @pytest.mark.parametrize(
        "cs",
        [
            [complex(math.nan, 0.0)],
            [1.0 + 0.0j, complex(0.0, math.inf)],
            [complex(-math.inf, 1.0), 0.5j, -2.0 + 0.0j],
            [1e200 + 0.0j, 1e200j, -1e200 + 0.0j],
        ],
        ids=["nan", "inf-imag", "inf-real", "overflow"],
    )
    def test_non_finite_sets_rejected_as_by_the_chain(self, cs):
        """The one normalization raises the DomainError that Poly raised on
        the chain's coefficients, with the same message."""
        with pytest.raises(DomainError) as chain:
            chained_extremes(cs)
        for build in (_normalized_coeffs, poly_from_critical_points):
            with pytest.raises(DomainError) as direct:
                build(cs)
            assert str(direct.value) == str(chain.value)

    @pytest.mark.parametrize(
        "cs",
        [[0j, 1.0 + 0.0j], [0j], [2.0 + 0.0j, -0.0 + 0.0j, -1j], [1e-200 + 0.0j, 1e-200j, 1e-200 + 0.0j]],
        ids=["zero-first", "zero-only", "zero-middle", "underflow"],
    )
    def test_zero_product_is_a_domain_error(self, cs):
        """P'(0) = 1 needs prod c_j != 0: a zero critical point, or a
        product that underflows, is a DomainError and not a bare
        ZeroDivisionError."""
        for build in (poly_from_critical_points, _normalized_coeffs, chained_extremes):
            with pytest.raises(DomainError, match="product is 0"):
                build(cs)

    @pytest.mark.parametrize("maximize", [True, False], ids=["s0", "ds0"])
    def test_objective_is_the_chain_bitwise(self, maximize):
        """Over 2,000 seeded parameter vectors of degree 2-12 (c_2 .. c_{n-1};
        c_1 = 1 is fixed), the objective equals the chain it replaced bit for
        bit; about one in seven plants a pair at distance 0.5 or 2 times the
        collision tolerance, against c_1 at degree 3 and between c_2 and c_3
        above."""
        objective = search_objective(maximize)
        lo, hi = search._LOG_RADIUS_BOUNDS
        stream = Stream(2611)
        collided = 0
        for trial in range(2000):
            st = stream.derive(trial)
            n = 2 + trial % 11
            x = []
            for _ in range(n - 2):
                x += [st.uniform_in(lo, hi), st.uniform_in(-8.0, 8.0)]
            if n > 2 and trial % 7 == 0:
                gap = (0.5 if trial % 14 else 2.0) * search._COLLISION_TOL
                if n == 3:
                    x[0:2] = [math.log1p(gap), 0.0]
                else:
                    x[2:4] = [x[0], x[1] + gap / math.exp(x[0])]
            want = chained_objective(x, maximize)
            collided += want == math.inf
            assert objective(x).hex() == want.hex(), (trial, x)
        assert 100 < collided < 200

    def test_objective_is_inf_for_a_colliding_pair(self):
        for maximize in (True, False):
            objective = search_objective(maximize)
            # c_2 5e-7 from c_1 = 1 on the unit circle, then 2e-6
            assert objective([0.0, 5e-7]) == math.inf
            assert math.isfinite(objective([0.0, 2e-6]))

    @pytest.mark.parametrize(
        "x, message",
        [
            ([-800.0, 0.0], "product is 0"),
            ([math.nan, 0.0], "coefficient must be finite"),
            ([math.log(1e200), 0.0, math.log(1e200), 2.0], "coefficient must be finite"),
            # c_2 = 1e308 e^(i pi/4) and c_3 = -2: P'(0)'s divisor has parts
            # near 1.4e308, so 1/q_0 is 0 while the other quotients are finite
            ([math.log(1e308), math.pi / 4, math.log(2.0), math.pi],
             "leading coefficient must be nonzero"),
        ],
        ids=["zero-product", "nan", "overflow", "zero-leading"],
    )
    def test_objective_raises_as_the_chain(self, x, message):
        with pytest.raises(DomainError, match=message) as chain:
            chained_objective(x, True)
        for maximize in (True, False):
            with pytest.raises(DomainError) as direct:
                search_objective(maximize)(x)
            assert str(direct.value) == str(chain.value)

    def test_param_decode(self):
        cs = critical_points_from_params([0.0, 0.0, math.log(2.0), math.pi / 2])
        assert cs[0] == pytest.approx(1.0)
        assert cs[1] == pytest.approx(2j)

    def test_extremes_are_invariant_under_scaling(self):
        """The search fixes c_1 = 1 because P_(lambda c)(z) = lambda P_c(z /
        lambda): min and max of |P(c)/c| over the critical points agree for
        c and lambda c within 1e-12 relative, at |lambda| = 1e-2 and 1e2."""
        stream = Stream(2813)
        for trial, cs in enumerate(builder_oracle_sets()):
            st = stream.derive(trial)
            lo, hi = chained_extremes(cs)
            for modulus in (1e-2, 1e2):
                lam = polar(modulus, st.uniform_in(0.0, 2.0 * math.pi))
                scaled = [lam * c for c in cs]
                coeffs = _normalized_coeffs(scaled)
                vals = quotient_moduli(coeffs[-1], coeffs[-2::-1], scaled)
                assert min(vals) == pytest.approx(lo, rel=1e-12, abs=0.0)
                assert max(vals) == pytest.approx(hi, rel=1e-12, abs=0.0)


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
        """ds0 at n = 4, seed 2: no two of restarts 0 .. 7 agree, restart 8
        ties the best, and the table stops there, short of the cap of 10."""
        state = search_extremal_ds0(4, SearchConfig(restarts=10, seed=2))
        best = math.inf
        for rec in state.table:
            assert rec.best_so_far <= best
            best = rec.best_so_far
        assert [rec.index for rec in state.table] == list(range(9))
        assert state.restarts_done == 9 and not state.polished
        ties = [rec for rec in state.table if abs(rec.objective - best) <= search._TIE_TOL]
        assert len(ties) == 2 and ties[-1] is state.table[-1]

    @staticmethod
    def simplex_starts(monkeypatch) -> list:
        """The start point of every simplex run, all in this process."""
        set_cpus(monkeypatch, 1)
        starts = []
        nelder_mead = simplex.nelder_mead

        def spy(func, x0, **kwargs):
            starts.append(list(x0))
            return nelder_mead(func, x0, **kwargs)

        monkeypatch.setattr(simplex, "nelder_mead", spy)
        return starts

    def test_polish_runs_when_restarts_disagree(self, monkeypatch):
        """Ten simplex iterations leave the restarts apart: one more run
        starts in this process, and the objective is no worse than the best
        restart's."""
        monkeypatch.setattr(search, "_MAX_ITER", 10)
        starts = self.simplex_starts(monkeypatch)
        for search_fn, better in ((search_extremal_s0, max), (search_extremal_ds0, min)):
            starts.clear()
            state = search_fn(4, SearchConfig(restarts=6, seed=4))
            objectives = [rec.objective for rec in state.table]
            best = better(objectives)
            assert sum(abs(v - best) <= search._TIE_TOL for v in objectives) < 2
            assert state.polished
            assert len(starts) == 7
            assert better(state.objective, best) == state.objective
            assert state.table[-1].best_so_far == best

    def test_agreeing_restarts_run_no_polish(self, monkeypatch):
        """ds0 at n = 4, seed 4: restart 4 ties restart 3, so five simplex
        runs of the cap of 8, and no polish."""
        starts = self.simplex_starts(monkeypatch)
        state = search_extremal_ds0(4, SearchConfig(restarts=8, seed=4))
        assert not state.polished
        assert len(starts) == state.restarts_done == 5
        assert state.objective == state.table[-1].best_so_far

    def test_two_agreeing_restarts_stop_the_search(self, monkeypatch):
        """s0 at n = 3: restarts 0 and 1 both reach 2/3, and no third
        simplex run starts."""
        starts = self.simplex_starts(monkeypatch)
        state = search_extremal_s0(3, SearchConfig(restarts=8, seed=1))
        assert len(starts) == 2
        assert state.restarts_done == 2 and not state.polished
        assert [rec.index for rec in state.table] == [0, 1]
        assert abs(state.table[0].objective - state.table[1].objective) <= search._TIE_TOL

    def test_non_finite_restart_leaves_a_gap_not_an_error(self, monkeypatch):
        """Restart 0 ends non-finite: it gets no table row, and restarts 1
        and 2 confirm the best."""
        starts = self.simplex_starts(monkeypatch)
        nelder_mead = simplex.nelder_mead

        def first_diverges(func, x0, **kwargs):
            res = nelder_mead(func, x0, **kwargs)
            return dataclasses.replace(res, fun=math.inf) if len(starts) == 1 else res

        monkeypatch.setattr(simplex, "nelder_mead", first_diverges)
        state = search_extremal_s0(3, SearchConfig(restarts=4, seed=1))
        assert len(starts) == 3
        assert [rec.index for rec in state.table] == [1, 2]
        assert state.restarts_done == 3 and not state.polished
        assert state.objective == pytest.approx(2 / 3, abs=1e-9)

    @pytest.mark.parametrize("search_fn", [search_extremal_s0, search_extremal_ds0],
                             ids=["s0", "ds0"])
    def test_quadratic_runs_no_simplex_and_forks_no_worker(self, search_fn, monkeypatch):
        """Every quadratic is similar to z - z^2/2 (c_1 = 1): one objective
        call, no simplex, no fan-out."""

        def refuse(*args, **kwargs):
            raise AssertionError("a quadratic search ran a simplex or a fan-out")

        monkeypatch.setattr(simplex, "nelder_mead", refuse)
        monkeypatch.setattr(search, "fan_out", refuse)
        state = search_fn(2, SearchConfig(restarts=8, seed=1))
        assert state.objective == 0.5
        assert state.params == ()
        assert state.best_poly.coeffs == (0j, 1 + 0j, -0.5 + 0j)
        assert (state.restarts_done, state.table, state.polished) == (0, (), False)

    def test_never_exceeds_known_ceilings(self):
        for n in (2, 3, 4, 5):
            state = search_extremal_s0(n, SearchConfig(restarts=8, seed=5))
            ceiling = min(1.0, 4.0 ** ((n - 2) / (n - 1)))
            assert state.objective <= ceiling + 1e-6

    def test_no_finite_restart_raises(self, monkeypatch):
        # a collision guard wider than the search region rejects every point
        monkeypatch.setattr(search, "_COLLISION_TOL", 1e9)
        with pytest.raises(PreconditionError, match="no restart reached a finite"):
            search_extremal_s0(3, SearchConfig(restarts=2))

    def test_zero_restarts_rejected(self):
        with pytest.raises(DomainError):
            SearchConfig(restarts=0)

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


class TestSearchCommands:
    def test_objectives_reach_the_conjectured_values(self, tmp_path):
        """The s0 and ds0 commands of perfbench's search-dynamics workload,
        held to its gate: exit 0 and an objective within 1e-6 of (n-1)/n or
        1/n."""
        from smale_lab import cli

        out = tmp_path / "report.json"
        for seed in range(1, 13):
            for mode, n, want in (("s0", 3, 2 / 3), ("ds0", 4, 1 / 4)):
                argv = ["search", "--mode", mode, "--degree", str(n), "--restarts", "8"]
                assert cli.run([*argv, "--seed", str(seed), "--out", str(out)]) == 0
                objective = json.loads(out.read_text())["state"]["objective"]
                assert abs(objective - want) <= 1e-6, (mode, seed, objective)


    @pytest.mark.parametrize(
        "mode, n, seed, polished",
        [("s0", 3, 1, False), ("ds0", 4, 3, True)],
        ids=["unpolished", "polished"],
    )
    def test_report_bytes_do_not_depend_on_the_cpu_count(
        self, mode, n, seed, polished, tmp_path, monkeypatch
    ):
        from smale_lab import cli

        out = tmp_path / "report.json"
        argv = ["search", "--mode", mode, "--degree", str(n), "--restarts", "8",
                "--seed", str(seed), "--out", str(out)]
        texts = []
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            assert cli.run(argv) == 0
            texts.append(re.sub(r',"wall_time_s":[^,}]+', "", out.read_text()))
        assert texts[0] == texts[1] == texts[2]
        assert json.loads(texts[0])["state"]["polished"] is polished

    def test_s0_report_shows_the_gap_to_the_extremal_family(self, tmp_path):
        from smale_lab import cli

        out = tmp_path / "report.json"
        for mode in ("s0", "ds0"):
            argv = ["search", "--mode", mode, "--degree", "5", "--restarts", "2",
                    "--seed", "1", "--out", str(out)]
            assert cli.run(argv) == 0
            body = json.loads(out.read_text())
            if mode == "ds0":
                assert "attained_value" not in body and "gap" not in body
                continue
            assert body["attained_value"] == s0(extremal_family(5)).ratio
            assert body["attained_value"] == pytest.approx(0.8, abs=1e-12)
            assert body["gap"] == body["attained_value"] - body["state"]["objective"]


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

    def test_one_enumeration_per_trial(self, monkeypatch):
        # the verdict and the certificate witnesses come from the one set
        # each trial enumerates: one root find per coordinate per trial
        from smale_lab import cstar

        seen = []
        real = cstar.critical_points_of_roots

        def spy(roots):
            seen.append(roots)
            return real(roots)

        monkeypatch.setattr(cstar, "critical_points_of_roots", spy)
        res = run_hunt(4, 3, 5, SearchConfig(seed=1))
        assert res.stats.trials_run == 5
        assert len(seen) == 3 * 5

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_count_below_one_rejected(self, trials):
        with pytest.raises(DomainError):
            run_hunt(2, 2, trials, SearchConfig(seed=1))

    @pytest.mark.parametrize("n,k", [(1, 2), (3, 0), (3, -1)])
    def test_degree_and_dim_below_range_rejected(self, n, k):
        with pytest.raises(DomainError, match="degree >= 2 and dim >= 1"):
            run_hunt(n, k, 5, SearchConfig(seed=1))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_root_find_failure_is_raised_not_skipped(self, jobs, monkeypatch):
        # one Aberth sweep leaves some trials' critical points unconverged;
        # degree 5, since up to four distinct roots take a closed form
        monkeypatch.setattr(rootfind, "_MAX_ITERS", 1)
        with pytest.raises(RootFindError):
            run_hunt(5, 2, 20, SearchConfig(seed=1), jobs=jobs)

    def test_skips_count_draws_without_an_admissible_point(self, monkeypatch):
        # a margin wider than every sampling disk admits no z at all
        monkeypatch.setattr(search, "SAMPLER_MARGIN", 1e9)
        res = run_hunt(3, 2, 7, SearchConfig(seed=1))
        assert (res.stats.trials_run, res.stats.trials_skipped) == (0, 7)

    def test_critical_draw_is_skipped_by_the_checker_rule(self, monkeypatch):
        # six roots at 2 and z = 2.015: z clears SAMPLER_MARGIN and
        # ||P'(z)|| = 4.6e-9, but check_strong_forms counts z as critical.
        # The sampler applies the same rule, so the trial is skipped, not
        # raised
        P = CStarPoly(tuple(CStarElement((2 + 0j,)) for _ in range(6)))
        z = CStarElement((2.015 + 0j,))
        with pytest.raises(PreconditionError, match="critical point"):
            check_strong_forms(P, z)

        def planted(self, radius):
            return 2 + 0j if radius == search._ROOT_DRAW_RADIUS else z.coords[0]

        monkeypatch.setattr(Stream, "complex_in_disk", planted)
        res = run_hunt(6, 1, 1, SearchConfig(seed=1))
        assert (res.stats.trials_run, res.stats.trials_skipped) == (0, 1)

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
