"""The benchmark under perfbench/ reaches into the package by name: the
tracer wraps module attributes and the workloads call entry points and
private helpers.  perfbench/ is not a test path, so these checks keep a
refactor of the package from breaking the benchmark unseen."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    return importlib.import_module(name)


workloads = _perfbench_module("workloads")


def test_every_traced_binding_resolves():
    pytest.importorskip("numpy")  # the tracer's self-time arithmetic
    pytest.importorskip("scipy")  # package_targets wraps scipy.optimize.minimize
    from smale_lab import rootfind

    targets = _perfbench_module("tracer").package_targets()
    assert targets
    for home, attr, _name, _hook in targets:
        assert callable(getattr(home, attr)), f"{home.__name__}.{attr}"
    # worker.py reads the hit ratio of the critical-point cache
    assert rootfind.cached_critical_points.cache_info() is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_step_of_each_workload(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    step = wl.step(wl.next_input(), True)
    assert step.failed == 0
    assert step.units >= 1
    assert step.output
