"""The four benchmark workloads: seeded inputs, timed calls, gates, digests.

Each workload is a closed loop from one process and one thread: the caller
makes a call, waits for it, checks it, then makes the next.  All inputs
come from the benchmark seed; the program receives only polynomials,
points and seeds.  Inputs never repeat within a run, so the package's
process-wide lru caches only ever help within one polynomial's own work.

A workload's *step* handles one input and returns a ``Step``.  Steps come
in a fixed cycle (degree mix, sweep shapes, command mix), so every window
of ``window`` steps holds the same mix for any seed.  The first ``prefix``
steps give the estimate means and the first ``digest_steps`` the output
digest, so both are deterministic per seed.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import asdict, dataclass, field

from smale_lab import cli, polycore, report, search, smale
from smale_lab.errors import SmaleLabError
from smale_lab.rng import Stream

# Captured before any tracer is installed, so serializing outputs for the
# digest is never counted as program work.
_dumps = report.dumps
_clock = time.perf_counter

# A float gate on a proved theorem or identity uses the package's slack.
_SLACK = 1e-9


@dataclass
class Step:
    latencies: list[float] = field(default_factory=list)  # one per call, seconds
    busy_s: float = 0.0  # time inside the program, calls included
    units: int = 0
    failed: int = 0  # calls that raised, or failed a gate
    theorem_failed: int = 0  # gates on proved results; any of these fails the run
    s_estimates: list[float] = field(default_factory=list)
    ds_estimates: list[float] = field(default_factory=list)
    output: bytes = b""  # report.dumps bytes, wall_time_s stripped


def _disk(rng: random.Random, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(phi), r * math.sin(phi))


def poly_mix(rng: random.Random):
    """Endless (polynomial, seed) pairs with a fixed mix every 35 draws.

    Four of every five are root-form polynomials of degree 2..8 with roots
    in |z| <= 2; the fifth is ``search.random_normalized_poly`` of degree
    2..8.  Degrees cycle, so any 35 consecutive draws have the same mix.
    """
    root_form = normalized = 0
    while True:
        for _ in range(4):
            degree = 2 + root_form % 7
            root_form += 1
            yield polycore.from_roots([_disk(rng, 2.0) for _ in range(degree)]), rng.getrandbits(32)
        degree = 2 + normalized % 7
        normalized += 1
        stream = Stream(rng.getrandbits(63))
        yield search.random_normalized_poly(degree, stream), rng.getrandbits(32)


class Bounds:
    """``smale.bound_report`` with the criterion-4 sampler.

    Nelder-Mead refinement does almost all the work, so a refinement change
    shows here.  One call is one report.
    """

    name = "bounds"
    window = 140
    prefix = digest_steps = 700
    sampler = dict(n_samples=30, refine_starts=2, refine_max_iter=30)

    def __init__(self, seed: int, scratch: str):
        self._mix = poly_mix(random.Random(f"bounds/{seed}"))

    def next_input(self):
        return next(self._mix)

    def step(self, inp, digest: bool) -> Step:
        p, seed = inp
        cfg = smale.SampleConfig(seed=seed, **self.sampler)
        out = Step()
        t0 = _clock()
        try:
            rep = smale.bound_report(p, cfg)
        except SmaleLabError:
            rep = None
        t1 = _clock()
        out.latencies.append(t1 - t0)
        out.busy_s = t1 - t0
        if rep is None:
            out.failed = 1
            return out
        out.units = 1
        if not rep.all_theorems_pass:
            out.theorem_failed = 1
        normalized = polycore.is_normalized(p)
        if out.theorem_failed or (normalized and (rep.s0 is None or rep.ds0 is None)):
            out.failed = 1
        out.s_estimates.append(rep.s_estimate)
        out.ds_estimates.append(rep.ds_estimate)
        if digest:
            out.output = _dumps(report.scalar_report_to_json(rep)).encode()
        return out


class Points:
    """The criterion-3 sweep: 100 sampled points per polynomial, then
    ``s_at`` and ``ds_at`` at each one.

    No refinement runs; the quotient kernel (divided differences and the
    per-point witness loop) is most of the time.  A refinement-only change
    must leave this workload unchanged.  One call is one s_at + ds_at pair.
    """

    name = "points"
    window = 35
    prefix = 1400
    digest_steps = 35
    n_samples = 100

    def __init__(self, seed: int, scratch: str):
        self._mix = poly_mix(random.Random(f"points/{seed}"))

    def next_input(self):
        return next(self._mix)

    def step(self, inp, digest: bool) -> Step:
        p, seed = inp
        out = Step()
        t0 = _clock()
        try:
            pts = smale.sample_points(p, smale.SampleConfig(n_samples=self.n_samples, seed=seed))
        except SmaleLabError:
            pts = None
        out.busy_s = _clock() - t0
        if pts is None:
            out.failed = 1
            return out
        n = p.degree
        ceiling = 4.0 + _SLACK  # Smale's theorem
        floor = 1.0 / (n * 4.0 ** n) - _SLACK  # Dubinin-Sugawa
        rows = []
        s_best, ds_best = 0.0, math.inf
        for z in pts:
            t0 = _clock()
            try:
                s = smale.s_at(p, z)
                d = smale.ds_at(p, z)
            except SmaleLabError:
                s = d = None
            lat = _clock() - t0
            out.latencies.append(lat)
            out.busy_s += lat
            if s is None:
                out.failed += 1
                continue
            out.units += 1
            if not (s.ratio <= ceiling and d.ratio >= floor and s.ratio <= d.ratio):
                out.theorem_failed += 1
                out.failed += 1
            s_best = max(s_best, s.ratio)
            ds_best = min(ds_best, d.ratio)
            if digest:
                rows.append([report.witness_to_json(s), report.witness_to_json(d)])
        if out.units:
            # the sampled estimates bound_report starts from: a lower bound
            # on S and an upper bound on DS
            out.s_estimates.append(s_best)
            out.ds_estimates.append(ds_best)
        if digest:
            out.output = _dumps(rows).encode()
        return out


class Hunt:
    """``search.run_hunt(n, k, trials, strong=True)`` sweeps.

    The (n, k) shapes have critical products of 1, 4, 27 and 125 elements.
    The work is ``cstar`` plus uncached root finding, which ``bounds`` and
    ``points`` reach only through the lru cache.  One call is one sweep.
    Trial counts order the sweep times (3,2) < (2,4) < (4,3) < (6,3), well
    apart, and (4,3) comes twice per cycle, so the median call and the tail
    call each fall inside one shape's times rather than between two.
    """

    name = "hunt"
    shapes = ((3, 2, 20), (2, 4, 20), (4, 3, 16), (4, 3, 16), (6, 3, 8))
    window = 100
    prefix = digest_steps = 100

    def __init__(self, seed: int, scratch: str):
        self._rng = random.Random(f"hunt/{seed}")
        self._count = 0

    def next_input(self):
        n, k, trials = self.shapes[self._count % len(self.shapes)]
        self._count += 1
        return n, k, trials, self._rng.getrandbits(32)

    def step(self, inp, digest: bool, jobs: int = 1) -> Step:
        n, k, trials, seed = inp
        out = Step()
        t0 = _clock()
        try:
            res = search.run_hunt(n, k, trials, search.SearchConfig(seed=seed), strong=True, jobs=jobs)
        except SmaleLabError:
            res = None
        t1 = _clock()
        out.latencies.append(t1 - t0)
        out.busy_s = t1 - t0
        if res is None:
            out.failed = 1
            return out
        st = res.stats
        out.units = st.trials_run
        if n == 2 and (abs(st.worst_min_ratio - 0.5) > _SLACK or abs(st.worst_max_ratio - 0.5) > _SLACK
                       or res.certificates):
            out.theorem_failed = 1  # degree 2 is an identity: both ratios are 1/2
        if out.theorem_failed or st.trials_skipped:
            out.failed = 1
        out.s_estimates.append(st.worst_min_ratio)
        out.ds_estimates.append(st.worst_max_ratio)
        if digest:
            body = {"n": n, "k": k, "trials": trials, "seed": seed, "stats": asdict(st),
                    "certificates": [c.to_json() for c in res.certificates]}
            out.output = _dumps(body).encode()
        return out


class SearchDynamics:
    """``smale_lab.cli.run`` in-process on three commands.

    The only workload that reaches the extremal search, orbit iteration and
    report/cli.  The cycle (s0 search, ds0 search, dynamics sweep) gives
    search and dynamics about half the time each.  One call is one command.
    """

    name = "search-dynamics"
    commands = (
        ["search", "--mode", "s0", "--degree", "3", "--restarts", "8"],
        ["search", "--mode", "ds0", "--degree", "4", "--restarts", "8"],
        ["dynamics", "--random-sweep", "3,1000"],
    )
    window = 33
    prefix = digest_steps = 33

    def __init__(self, seed: int, scratch: str):
        self._rng = random.Random(f"search-dynamics/{seed}")
        self._count = 0
        self.out_path = os.path.join(scratch, f"report-{os.getpid()}.json")

    def next_input(self):
        argv = self.commands[self._count % len(self.commands)]
        self._count += 1
        return argv + ["--seed", str(self._rng.getrandbits(32)), "--out", self.out_path]

    def step(self, inp, digest: bool) -> Step:
        out = Step()
        t0 = _clock()
        code = cli.run(inp)
        t1 = _clock()
        out.latencies.append(t1 - t0)
        out.busy_s = t1 - t0
        if code not in (0, 2):
            out.failed = 1
            return out
        out.units = 1
        with open(self.out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        os.remove(self.out_path)
        payload.pop("wall_time_s")
        if payload["kind"] == "search":
            n = payload["degree"]
            objective = payload["state"]["objective"]
            if payload["mode"] == "s0":
                ok = abs(objective - (n - 1) / n) <= 1e-6
                out.s_estimates.append(objective)
            else:
                ok = abs(objective - 1.0 / n) <= 1e-6
                out.ds_estimates.append(objective)
        else:
            ok = payload["passed"] == payload["trials"]
        out.failed = int(not ok)
        if digest:
            out.output = _dumps(payload).encode()
        return out


WORKLOADS = {w.name: w for w in (Bounds, Points, Hunt, SearchDynamics)}
