"""Outside-in tracing of the smale_lab package.

The package binds names with ``from .x import y``, so replacing a function
in its home module is not enough: every module that imported it holds its
own reference.  ``Tracer.install`` therefore replaces *every* binding of the
original object in every loaded ``smale_lab`` module, and ``restore`` puts
each one back.  ``scipy.optimize.minimize`` is imported inside function
bodies, so it is replaced on ``scipy.optimize`` itself.

Each wrapped call records a span (name, start, end, parent) in compact
arrays kept in memory.  A call whose caller is a span of the same name is
not a new span (``s_at`` runs ``_witnesses``; both are ``smale.witness``).
Self time is a span's duration minus the durations of its direct children;
spans are single-threaded, so children never overlap.  The tracer is not
thread-safe: trace only code that runs in one thread.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Layers are the package modules; report and cli form one layer.
LAYERS = ("polycore", "rootfind", "smale", "cstar", "search", "dynamics", "verify", "report_cli")
_LAYER_OF_PREFIX = {"report": "report_cli", "cli": "report_cli"}

_VERDICTS = ("converged_to_zero", "escaped", "cycled", "max_iters")


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return _LAYER_OF_PREFIX.get(prefix, prefix)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("l")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.name_ids.append(nid)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.names[self.name_ids[self.stack[-1]]] if self.stack else None

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, hook=None):
        """``fn`` recording a span per call; ``name`` is a string, or a
        function of the parent span's name returning one."""
        tracer = self

        def traced(*args, **kwargs):
            nm = name if isinstance(name, str) else name(tracer.parent_name())
            nid = tracer._name_id(nm)
            if tracer.stack and tracer.name_ids[tracer.stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[nm + ".errors"] += 1
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, nm, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Replace each target's every binding in the loaded package.

        ``targets`` holds (home module, attribute, span name, hook) tuples.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "smale_lab" or n.startswith("smale_lab."))]
        try:
            for home, attr, name, hook in targets:
                original = getattr(home, attr)
                wrapper = self.wrap(original, name, hook)
                owners = modules if home in modules else [home] + modules
                for mod in owners:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def self_times(self):
        """(name, calls, self seconds) per span name, in first-seen order."""
        n = len(self.starts)
        if n == 0:
            return []
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        ids = np.asarray(self.name_ids, dtype=np.int64)
        has_parent = parents >= 0
        children = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - children
        calls = np.bincount(ids, minlength=len(self.names))
        selfs = np.bincount(ids, weights=own, minlength=len(self.names))
        return [(nm, int(calls[i]), float(selfs[i])) for i, nm in enumerate(self.names)]


# Hooks record the counts that live at a layer boundary.

def _count_rejected(counts, name, args, kwargs, out):
    sampler = args[1] if len(args) > 1 else kwargs["sampler"]
    counts[name + ".rejected"] += sampler.n_samples - len(out)


def _count_minimize(counts, name, args, kwargs, out):
    counts[name + ".nfev"] += int(out.nfev)
    counts[name + ".converged"] += bool(out.success)


def _count_elements(counts, name, args, kwargs, out):
    counts[name + ".elements"] += out.product_size


def _count_trials(counts, name, args, kwargs, out):
    counts[name + ".trials_run"] += out.stats.trials_run
    counts[name + ".trials_skipped"] += out.stats.trials_skipped


def _count_bytes(counts, name, args, kwargs, out):
    counts[name + ".bytes"] += len(out)  # dumps writes ASCII only


def _minimize_name(parent: str | None) -> str:
    if parent == "smale.bound_report":
        return "smale.refine"
    if parent == "search.extremal":
        return "search.minimize"
    return "scipy.minimize"


def package_targets():
    """Every wrapped boundary: (home module, attribute, span name, hook)."""
    import scipy.optimize

    from smale_lab import cli, cstar, dynamics, polycore, report, rootfind, search, smale, verify

    default_iters = dynamics.OrbitConfig().max_iters

    def count_orbit(counts, name, args, kwargs, out):
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        counts[name + ".steps"] += out.trajectory_len
        counts["dynamics.verdict." + out.verdict] += 1
        counts["dynamics.escalations"] += cfg is not None and cfg.max_iters > default_iters

    return [
        (polycore, "evaluate", "polycore.evaluate", None),
        (polycore, "divided_difference", "polycore.divided_difference", None),
        (polycore, "from_roots", "polycore.from_roots", None),
        (rootfind, "find_roots", "rootfind.find_roots", None),
        (rootfind, "critical_points", "rootfind.critical_points", None),
        (rootfind, "cached_critical_points", "rootfind.cached_critical_points", None),
        (smale, "s_at", "smale.witness", None),
        (smale, "ds_at", "smale.witness", None),
        (smale, "_witnesses", "smale.witness", None),
        (smale, "sample_points", "smale.sample_points", _count_rejected),
        (smale, "bound_report", "smale.bound_report", None),
        (scipy.optimize, "minimize", _minimize_name, _count_minimize),
        (cstar, "enumerate_critical_set", "cstar.enumerate_critical_set", _count_elements),
        (cstar, "check_strong_forms", "cstar.check_strong_forms", None),
        (search, "run_hunt", "search.run_hunt", _count_trials),
        (search, "search_extremal_s0", "search.extremal", None),
        (search, "search_extremal_ds0", "search.extremal", None),
        (search, "hunt_mlp", "search.hunt_mlp", None),
        (dynamics, "mlp_check", "dynamics.mlp_check", None),
        (dynamics, "orbit", "dynamics.orbit", count_orbit),
        (verify, "exact_cstar_quotients", "verify.exact_cstar_quotients", None),
        (verify, "exact_normalized_ratios", "verify.exact_normalized_ratios", None),
        (report, "dumps", "report.dumps", _count_bytes),
        (cli, "run", "cli.run", None),
    ]


def layer_metrics(tracer: Tracer, root: str, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from a finished trace whose outermost span is ``root``."""
    by_name = {nm: (calls, self_s) for nm, calls, self_s in tracer.self_times()}
    counts = tracer.counts

    def calls(nm):
        return float(by_name.get(nm, (0, 0.0))[0])

    def self_s(nm):
        return by_name.get(nm, (0, 0.0))[1]

    out: dict[str, float] = {}
    for nm in ("rootfind.find_roots", "rootfind.critical_points", "rootfind.cached_critical_points",
               "polycore.divided_difference", "polycore.evaluate", "polycore.from_roots",
               "smale.witness", "smale.sample_points", "smale.bound_report", "smale.refine",
               "cstar.enumerate_critical_set", "cstar.check_strong_forms",
               "search.run_hunt", "search.extremal", "search.minimize", "search.hunt_mlp",
               "dynamics.mlp_check", "dynamics.orbit",
               "verify.exact_cstar_quotients", "verify.exact_normalized_ratios",
               "report.dumps", "cli.run"):
        out[nm + ".calls"] = calls(nm)
        out[nm + ".self_s"] = self_s(nm)
    for key in ("rootfind.find_roots.errors", "smale.sample_points.rejected", "smale.refine.nfev",
                "cstar.enumerate_critical_set.elements", "search.run_hunt.trials_run",
                "search.run_hunt.trials_skipped", "search.minimize.nfev", "dynamics.orbit.steps",
                "dynamics.escalations", "report.dumps.bytes",
                *("dynamics.verdict." + verdict for verdict in _VERDICTS)):
        out[key] = float(counts[key])
    refines = calls("smale.refine")
    out["smale.refine.converged_ratio"] = counts["smale.refine.converged"] / refines if refines else 0.0

    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for nm, (_calls, own) in by_name.items():
        key = "bench" if nm == root else layer_of(nm)
        if key in layer_self:  # anything else shows as a self_sum_ratio below 1
            layer_self[key] += own
    for key, own in layer_self.items():
        out[f"layer.{key}.self_s"] = own
    out["trace.wall_s"] = wall_s
    out["trace.self_sum_ratio"] = sum(layer_self.values()) / wall_s
    return out
