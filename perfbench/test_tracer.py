"""Tests of the outside-in tracer.  Run: python3 -m pytest perfbench/test_tracer.py"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402
import scipy.optimize  # noqa: E402

from smale_lab import cli, cstar, dynamics, polycore, rootfind, search, smale  # noqa: E402
from tracer import Tracer, layer_metrics, package_targets  # noqa: E402


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: float(next(it))


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4, 7, 10]))
    inner = tracer.wrap(lambda: None, "m.inner")

    def body():
        inner()
        inner()

    outer = tracer.wrap(body, "m.outer")
    outer()
    times = {name: (calls, own) for name, calls, own in tracer.self_times()}
    assert times["m.outer"] == (1, 10 - (3 - 1) - (7 - 4))
    assert times["m.inner"] == (2, (3 - 1) + (7 - 4))
    assert tracer.stack == []


def test_same_name_nesting_is_one_span_and_errors_are_counted():
    tracer = Tracer(clock=fake_clock([0, 5, 6, 8]))
    calls = []

    def fn(depth):
        calls.append(depth)
        if depth:
            return wrapped(depth - 1)
        raise ValueError("bottom")

    wrapped = tracer.wrap(fn, "m.fn")
    with pytest.raises(ValueError):
        wrapped(2)
    with tracer.span("m.other"):
        pass
    assert calls == [2, 1, 0]
    times = {name: (n, own) for name, n, own in tracer.self_times()}
    assert times == {"m.fn": (1, 5.0), "m.other": (1, 2.0)}
    assert tracer.counts["m.fn.errors"] == 1
    assert tracer.stack == []


def package_bindings():
    """Every (module, name) bound to a traced original, with the original."""
    modules = [m for n, m in sys.modules.items() if n == "smale_lab" or n.startswith("smale_lab.")]
    out = {(scipy.optimize, "minimize"): scipy.optimize.minimize}
    for home, attr, _name, _hook in package_targets():
        original = getattr(home, attr)
        for mod in modules:
            for key, val in vars(mod).items():
                if val is original:
                    out[(mod, key)] = original
    return out


def test_install_replaces_every_binding_and_restore_puts_them_back():
    before = package_bindings()
    tracer = Tracer()
    tracer.install(package_targets())
    try:
        for (mod, key), original in before.items():
            assert getattr(mod, key).__wrapped__ is original, (mod.__name__, key)
        for mod in (smale, search):
            assert mod.divided_difference.__wrapped__ is polycore.divided_difference.__wrapped__
        for mod in (smale, search, dynamics, cli):
            assert mod.cached_critical_points.__wrapped__ is rootfind.cached_critical_points.__wrapped__
        assert cstar.critical_points.__wrapped__ is rootfind.critical_points.__wrapped__
    finally:
        tracer.restore()
    for (mod, key), original in before.items():
        assert getattr(mod, key) is original, (mod.__name__, key)


def test_traced_bound_report_attributes_refinement():
    p = polycore.from_roots([1.0, -0.5j, 0.3 + 0.2j])
    sampler = smale.SampleConfig(n_samples=10, seed=3, refine_starts=2, refine_max_iter=5)
    plain = smale.bound_report(p, sampler)
    tracer = Tracer()
    tracer.install(package_targets())
    try:
        with tracer.span("bench"):
            traced = smale.bound_report(polycore.from_roots([1.0, -0.5j, 0.3 + 0.2j]), sampler)
    finally:
        tracer.restore()
    assert traced == plain
    wall = tracer.ends[0] - tracer.starts[0]
    m = layer_metrics(tracer, "bench", wall)
    assert m["smale.bound_report.calls"] == 1
    assert m["smale.refine.calls"] == 4  # two starts for each of s and ds
    assert m["smale.refine.nfev"] > 0
    assert m["smale.sample_points.rejected"] == 0
    assert m["smale.witness.calls"] > 10
    assert m["trace.self_sum_ratio"] == pytest.approx(1.0, abs=1e-9)
