import math

import pytest
from scipy.optimize import minimize

from conftest import search_objective
from smale_lab.rng import Stream
from smale_lab.simplex import nelder_mead

# the settings of smale._refined (the s side of bound_report) and search._search
REFINE = {"maxiter": 30, "xatol": 1e-10, "fatol": 1e-12}
SEARCH = {"maxiter": 800, "xatol": 1e-9, "fatol": 1e-11}
LOG_RADIUS = (math.log(1e-2), math.log(1e2))


def search_bounds(m):
    return [LOG_RADIUS, (-math.inf, math.inf)] * m


def quadratic(st: Stream, n: int):
    """Seeded positive definite quadratic with minimum value 0.

    Values near the minimum keep full relative precision, so vertices do
    not tie and the vertex order does not depend on how ties are sorted.
    """
    c = [st.uniform_in(-2.0, 2.0) for _ in range(n)]
    w = [st.uniform_in(0.5, 3.0) for _ in range(n)]
    a = [st.uniform_in(-0.4, 0.4) for _ in range(n - 1)]
    values = []

    def f(x):
        d = [float(v) - ci for v, ci in zip(x, c)]
        val = sum(wi * di * di for wi, di in zip(w, d))
        val += sum(ai * d[i] * d[i + 1] for i, ai in enumerate(a))
        values.append(val)
        return val

    return f, values


def assert_matches_scipy(f, values, x0, opts, bounds=None):
    # nelder_mead always takes scipy's adaptive coefficients
    ref = minimize(f, x0, method="Nelder-Mead", bounds=bounds,
                   options={**opts, "adaptive": True})
    del values[:]
    res = nelder_mead(f, x0, bounds=bounds, **opts)
    assert len(set(values)) == len(values), "objective tied; oracle needs no ties"
    assert res.x == tuple(float(v) for v in ref.x)
    assert res.fun == float(ref.fun)
    assert (res.nfev, res.nit) == (ref.nfev, ref.nit)
    return res


def root_distance(st: Stream, n: int):
    """Seeded weighted sum of sqrt|x_i - c_i|, minimum 0 at c.

    It is concave along each coordinate away from c, so contractions are
    often rejected and the simplex shrinks; its values do not tie on the
    seeds used below.
    """
    c = [st.uniform_in(-2.0, 2.0) for _ in range(n)]
    w = [st.uniform_in(0.5, 3.0) for _ in range(n)]
    values = []

    def f(x):
        val = sum(math.sqrt(abs(wi * (float(v) - ci))) * (1 + 0.1 * i)
                  for i, (v, ci, wi) in enumerate(zip(x, c, w)))
        values.append(val)
        return val

    return f, values


def shrank(res, n):
    # an iteration evaluates 1 or 2 points, or 2 + n when it shrinks
    return res.nfev > n + 1 + 2 * (res.nit - 1)


def search_start(st: Stream, m: int):
    x0 = []
    for _ in range(m):
        x0.append(st.uniform_in(math.log(0.3), math.log(3.0)))
        x0.append(st.uniform_in(0.0, 2.0 * math.pi))
    return x0


def test_refine_settings_match_scipy():
    stream = Stream(4201)
    for trial in range(40):
        st = stream.derive(trial)
        f, values = quadratic(st, 2)
        x0 = [st.uniform_in(-3.0, 3.0), st.uniform_in(-3.0, 3.0)]
        assert_matches_scipy(f, values, x0, REFINE)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bounded_adaptive_search_settings_match_scipy(m):
    stream = Stream(4202).derive(m)
    for trial in range(12):
        st = stream.derive(trial)
        f, values = quadratic(st, 2 * m)
        x0 = search_start(st, m)
        assert_matches_scipy(f, values, x0, SEARCH, search_bounds(m))


def test_every_branch_matches_scipy_in_two_dimensions():
    # between them these starts expand, contract outside and inside, and shrink
    stream = Stream(4205).derive(2)
    for trial in (0, 4, 13):
        st = stream.derive(trial)
        f, values = root_distance(st, 2)
        x0 = [st.uniform_in(-3.0, 3.0), st.uniform_in(-3.0, 3.0)]
        res = assert_matches_scipy(f, values, x0, REFINE)
        if trial == 13:
            assert shrank(res, 2)


def test_every_branch_matches_scipy_under_search_bounds():
    # six dimensions, the bounds of a degree-4 search; each start takes every
    # branch, and 120 iterations end before the simplex collapses onto ties
    opts = {**SEARCH, "maxiter": 120}
    stream = Stream(4205).derive(6)
    for trial in (0, 4, 9):
        st = stream.derive(trial)
        f, values = root_distance(st, 6)
        x0 = search_start(st, 3)
        res = assert_matches_scipy(f, values, x0, opts, search_bounds(3))
        assert shrank(res, 6)


@pytest.mark.parametrize(
    "n, maximize, maxiter, trials",
    [
        # the full 800 iterations at n = 3 end on a plateau of tied values
        (3, True, 150, (0, 1, 2)),
        (3, False, 150, (0, 1, 2)),
        (4, True, 800, (1, 3)),
        (4, False, 800, (1, 3)),
    ],
    ids=["s0-3", "ds0-3", "s0-4", "ds0-4"],
)
def test_extremal_objective_matches_scipy(n, maximize, maxiter, trials):
    objective = search_objective(maximize)
    values = []

    def f(x):
        val = objective(tuple(float(v) for v in x))
        values.append(val)
        return val

    opts = {**SEARCH, "maxiter": maxiter}
    stream = Stream(4206).derive(n).derive(int(maximize))
    for trial in trials:
        x0 = search_start(stream.derive(trial), n - 1)
        assert_matches_scipy(f, values, x0, opts, search_bounds(n - 1))


def test_stop_waits_for_every_value():
    # a steep bowl: the vertices come within xatol of the best long before
    # every value comes within fatol of it, so the value test decides
    stream = Stream(4207)
    opts = {"maxiter": 400, "xatol": 1e-3, "fatol": 1e-6}
    for trial in range(10):
        st = stream.derive(trial)
        f, values = quadratic(st, 2)

        def steep(x, f=f):
            return 1e12 * f(x)

        x0 = [st.uniform_in(-3.0, 3.0), st.uniform_in(-3.0, 3.0)]
        assert assert_matches_scipy(steep, values, x0, opts).nit < 400


def test_start_near_upper_bound_reflects_inside():
    # 1.05 * x0 passes the upper bound, so the first vertex is reflected
    f, values = quadratic(Stream(4203), 4)
    x0 = [LOG_RADIUS[1] - 0.01, 1.0, LOG_RADIUS[1] - 0.02, 2.0]
    assert_matches_scipy(f, values, x0, SEARCH, search_bounds(2))
    res = nelder_mead(f, x0, maxiter=1, xatol=0.0, fatol=0.0, bounds=search_bounds(2))
    assert res.x[0] <= LOG_RADIUS[1]


def test_plateau_ties_keep_vertex_order():
    x0 = [0.3, -0.7, 1.1]
    res = nelder_mead(lambda x: 1.0, x0, **REFINE)
    # every step ties and shrinks toward the first vertex, which stays first
    assert res.x == tuple(x0)
    assert res.fun == 1.0


def test_nan_sorts_last_and_makes_fun_nan():
    def f(x):
        return math.nan if x[0] > 1.0 else x[0] ** 2 + x[1] ** 2

    res = nelder_mead(f, [1.0, 0.0], maxiter=1, xatol=0.0, fatol=0.0)
    assert res.x == (1.0, 0.0)
    assert math.isnan(res.fun)
    assert (res.nfev, res.nit) == (3, 1)


def test_nan_never_counts_as_converged():
    res = nelder_mead(lambda x: math.nan, [0.5, 0.5], maxiter=25, xatol=1.0, fatol=1.0)
    assert math.isnan(res.fun)
    assert res.nit == 25


def test_inverted_bounds_rejected():
    with pytest.raises(ValueError):
        nelder_mead(lambda x: 0.0, [0.0], maxiter=5, xatol=0.0, fatol=0.0, bounds=[(1.0, 0.0)])
