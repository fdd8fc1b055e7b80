"""One measurement in a fresh interpreter; ``run.py`` starts these.

    python3 perfbench/worker.py setup    --workload W --seed N
    python3 perfbench/worker.py measure  --workload W --seed N --seconds S
    python3 perfbench/worker.py traced   --workload W --seed N --steps K

Every mode first imports the package and makes the workload's first call
cold; that time is one ``setup_s`` sample.  ``measure`` then runs fresh
inputs, untraced, until ``--seconds`` have passed and at least one window
and the prefix are done, timing ``reference.kernel`` between steps.
``traced`` runs the same first ``--steps`` inputs as a ``measure`` of the
same seed, with the tracer installed.  The result is one JSON object on the
last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# One reference kernel call (about 1 ms) every 50 ms: about 2% of a run.
REF_EVERY_S = 0.05


class Totals:
    """What a run of steps adds up to, plus its per-window summaries."""

    def __init__(self, window: int, prefix: int, digest_steps: int):
        self.window = window
        self.prefix = prefix
        self.digest_steps = digest_steps
        self.steps = self.attempted = self.failed = self.theorem_failed = 0
        self.busy_s = 0.0
        self.s_est: list[float] = []
        self.ds_est: list[float] = []
        self.digest = hashlib.sha256()
        self.windows: list[dict] = []
        self.ref_calls = 0
        self.ref_s = 0.0
        self._lat: list[float] = []
        self._units = 0
        self._busy = 0.0

    def add(self, step) -> None:
        self.steps += 1
        self.attempted += len(step.latencies) or 1
        self.failed += step.failed
        self.theorem_failed += step.theorem_failed
        self.busy_s += step.busy_s
        if self.steps <= self.prefix:
            self.s_est += step.s_estimates
            self.ds_est += step.ds_estimates
        if self.steps <= self.digest_steps:
            self.digest.update(step.output + b"\n")
        self._lat += step.latencies
        self._units += step.units
        self._busy += step.busy_s
        if self.window and self.steps % self.window == 0:
            lat = sorted(self._lat)
            # the highest percentile with ten calls beyond it
            self.windows.append({
                "calls": len(lat),
                "throughput": self._units / self._busy,
                "p50_s": statistics.median(lat),
                "tail_s": lat[-11],
                "tail_pct": 100.0 * (len(lat) - 10) / len(lat),
            })
            self._lat, self._units, self._busy = [], 0, 0.0

    def summary(self) -> dict:
        return {
            "steps": self.steps,
            "attempted": self.attempted,
            "failed": self.failed,
            "theorem_failed": self.theorem_failed,
            "busy_s": self.busy_s,
            "s_estimate_mean": statistics.fmean(self.s_est) if self.s_est else None,
            "ds_estimate_mean": statistics.fmean(self.ds_est) if self.ds_est else None,
            "estimates": [len(self.s_est), len(self.ds_est)],
            "digest": self.digest.hexdigest(),
            "ref_rate": self.ref_calls / self.ref_s if self.ref_s else None,
            "windows": self.windows,
        }


def run_steps(wl, totals: Totals, inputs=None, seconds: float = 0.0) -> None:
    """Steps over ``inputs``, or over fresh inputs until ``seconds`` pass."""
    if inputs is not None:
        for inp in inputs:
            totals.add(wl.step(inp, digest=totals.steps < totals.digest_steps))
        return
    min_steps = max(totals.window, totals.prefix, totals.digest_steps)
    start = next_ref = time.perf_counter()
    while totals.steps < min_steps or time.perf_counter() - start < seconds:
        totals.add(wl.step(wl.next_input(), digest=totals.steps < totals.digest_steps))
        t0 = time.perf_counter()
        if t0 >= next_ref:
            reference.kernel()
            next_ref = time.perf_counter()
            totals.ref_calls += 1
            totals.ref_s += next_ref - t0
            next_ref += REF_EVERY_S


def hunt_jobs_speedup(wl, steps: int) -> tuple[float, bool]:
    """Time of the same sweeps at jobs=1 over jobs=nproc, and equal output."""
    inputs = [wl.next_input() for _ in range(steps)]
    nproc = len(os.sched_getaffinity(0))
    times, outputs = [], []
    for jobs in (1, nproc):
        t0 = time.perf_counter()
        outputs.append([wl.step(inp, digest=True, jobs=jobs).output for inp in inputs])
        times.append(time.perf_counter() - t0)
    return times[0] / times[1], outputs[0] == outputs[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "traced"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--steps", type=int, default=0)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # imports smale_lab

    if not Path(workloads.smale.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"smale_lab was imported from outside {SRC}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    first = Totals(window=0, prefix=1, digest_steps=1)
    first.add(wl.step(wl.next_input(), digest=True))
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "first": first.summary()}
    del result["first"]["windows"]

    if args.mode == "measure":
        totals = Totals(wl.window, wl.prefix, wl.digest_steps)
        run_steps(wl, totals, seconds=args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["run"] = totals.summary()
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}
    elif args.mode == "traced":
        from smale_lab import rootfind
        from tracer import Tracer, layer_metrics, package_targets

        inputs = [wl.next_input() for _ in range(args.steps)]
        totals = Totals(wl.window, wl.prefix, wl.digest_steps)
        tracer = Tracer()
        targets = package_targets()
        cache_before = rootfind.cached_critical_points.cache_info()
        tracer.install(targets)
        try:
            t0 = time.perf_counter()
            with tracer.span("bench"):
                run_steps(wl, totals, inputs=inputs)
            wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        cache = rootfind.cached_critical_points.cache_info()
        hits, misses = cache.hits - cache_before.hits, cache.misses - cache_before.misses
        layers = layer_metrics(tracer, "bench", wall)
        layers["rootfind.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["search.run_hunt.jobs_speedup"] = 0.0
        if args.workload == "hunt":
            speedup, equal = hunt_jobs_speedup(wl, 10 * len(wl.shapes))
            layers["search.run_hunt.jobs_speedup"] = speedup
            result["jobs_output_equal"] = equal
        result["run"] = totals.summary()
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
