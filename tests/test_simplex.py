import math

import pytest
from scipy.optimize import minimize

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
        x0 = []
        for _ in range(m):
            x0.append(st.uniform_in(math.log(0.3), math.log(3.0)))
            x0.append(st.uniform_in(0.0, 2.0 * math.pi))
        assert_matches_scipy(f, values, x0, SEARCH, search_bounds(m))


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
