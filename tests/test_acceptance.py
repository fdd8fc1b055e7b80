"""Acceptance suite.

One test per acceptance criterion, run at the stated tolerances; each
prints a single PASS/FAIL line (run with ``pytest -s`` to see them on
passing runs).  Random data is generated from fixed seeds, so every run
checks exactly the same instances.
"""

import math
import re
import subprocess
import sys
import time

from conftest import degree2_higher_order, degree2_identity_residual
from smale_lab.cstar import CStarElement, CStarPoly, check_strong_forms
from smale_lab.errors import PreconditionError
from smale_lab.polycore import from_roots
from smale_lab.rng import Stream
from smale_lab.search import (
    SearchConfig,
    extremal_family,
    hunt_mlp,
    run_hunt,
    search_extremal_s0,
)
from smale_lab.smale import (
    SampleConfig,
    bound_report,
    ds_at,
    s0,
    s_at,
    sample_points,
)

SEED = 42


def verdict(number: int, ok: bool, description: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def degree2_trials():
    """10^4 seeded trials: 2500 per dimension k in {1, 2, 4, 8}."""
    stream = Stream(SEED, 1001)
    for k in (1, 2, 4, 8):
        sub = stream.derive(k)
        for trial in range(2500):
            st = sub.derive(trial)
            a = CStarElement(tuple(st.complex_in_disk(4.0) for _ in range(k)))
            b = CStarElement(tuple(st.complex_in_disk(4.0) for _ in range(k)))
            z = CStarElement(tuple(st.complex_in_disk(4.0) for _ in range(k)))
            yield k, a, b, z


def test_criterion_1_degree2_exactness():
    start = time.monotonic()
    worst_residual = 0.0
    worst_ratio_dev = 0.0
    count = 0
    for k, a, b, z in degree2_trials():
        try:
            res = degree2_identity_residual(a, b, z)
            v = check_strong_forms(CStarPoly((a, b)), z)
        except PreconditionError:
            continue
        count += 1
        worst_residual = max(worst_residual, res)
        worst_ratio_dev = max(
            worst_ratio_dev, abs(v.min_ratio - 0.5), abs(v.max_ratio - 0.5)
        )
        assert res <= 1e-10
        assert abs(v.min_ratio - 0.5) <= 1e-9
        assert abs(v.max_ratio - 0.5) <= 1e-9
    elapsed = time.monotonic() - start
    verdict(
        1,
        count >= 9990 and worst_residual <= 1e-10 and worst_ratio_dev <= 1e-9
        and elapsed < 10.0,
        "degree-2 identity exact on 10^4 trials, min = max = 1/2",
        f"{count} trials, worst residual {worst_residual:.2e}, "
        f"worst ratio dev {worst_ratio_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_degree2_higher_order():
    worst = 0.0
    worst_k1_dev = 0.0
    for k, a, b, z in degree2_trials():
        try:
            val = degree2_higher_order(a, b, z)
        except PreconditionError:
            continue
        worst = max(worst, val)
        assert val <= 0.25 + 1e-9
        if k == 1:
            worst_k1_dev = max(worst_k1_dev, abs(val - 0.25))
            assert abs(val - 0.25) <= 1e-9
    verdict(
        2,
        worst <= 0.25 + 1e-9 and worst_k1_dev <= 1e-9,
        "degree-2 higher-order quantity <= 1/4, equal at k = 1",
        f"max {worst:.12f}, k=1 deviation {worst_k1_dev:.2e}",
    )


def sweep_polys():
    """10^3 random polynomials per degree 2..8, from roots in |z| <= 2."""
    stream = Stream(SEED, 1003)
    for n in range(2, 9):
        sub = stream.derive(n)
        for trial in range(1000):
            st = sub.derive(trial)
            yield n, trial, from_roots([st.complex_in_disk(2.0) for _ in range(n)])


def test_criterion_3_theorem_ceiling_and_floor():
    start = time.monotonic()
    worst_s = 0.0
    worst_margin = math.inf
    checked = 0
    for n, trial, p in sweep_polys():
        floor = 1.0 / (n * 4.0 ** n)
        pts = sample_points(p, SampleConfig(n_samples=100, seed=SEED + trial))
        for z in pts:
            try:
                hi = s_at(p, z).ratio
                lo = ds_at(p, z).ratio
            except PreconditionError:
                continue
            checked += 1
            worst_s = max(worst_s, hi)
            worst_margin = min(worst_margin, lo - floor)
            assert hi <= 4.0 + 1e-9
            assert lo >= floor - 1e-9
    elapsed = time.monotonic() - start
    verdict(
        3,
        worst_s <= 4.0 + 1e-9 and worst_margin >= -1e-9 and elapsed < 60.0,
        "ratio ceiling 4 and dual floor 1/(n 4^n) over 7x10^5 points",
        f"{checked} points, max ratio {worst_s:.6f}, "
        f"min floor margin {worst_margin:.3e}, {elapsed:.1f}s",
    )


def test_criterion_4_literature_bound_oracles():
    start = time.monotonic()
    sampler = SampleConfig(n_samples=30, seed=SEED, refine_starts=2, refine_max_iter=30)
    failures = []
    reports = 0
    for n, trial, p in sweep_polys():
        rep = bound_report(p, sampler)
        reports += 1
        for check in rep.bound_checks:
            if not check.passed:
                failures.append((n, trial, check))
    # normalized inputs exercise the normalized-only oracles
    norm_stream = Stream(SEED, 1004)
    from smale_lab.search import random_normalized_poly

    for n in range(2, 9):
        sub = norm_stream.derive(n)
        for trial in range(100):
            p = random_normalized_poly(n, sub.derive(trial))
            rep = bound_report(p, sampler)
            reports += 1
            assert rep.s0 is not None and rep.ds0 is not None
            for check in rep.bound_checks:
                if not check.passed:
                    failures.append((n, trial, check))
    elapsed = time.monotonic() - start
    verdict(
        4,
        not failures,
        "all literature theorem bounds hold on the sweep",
        f"{reports} reports, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_5_extremal_reproduction():
    start = time.monotonic()
    cfg = SearchConfig(seed=SEED)  # default restarts
    results = {}
    for n in (2, 3, 4):
        results[n] = search_extremal_s0(n, cfg).objective
    ok = (
        abs(results[2] - 0.5) <= 1e-6
        and abs(results[3] - 2 / 3) <= 1e-3
        and abs(results[4] - 3 / 4) <= 1e-3
    )
    for n in (2, 3, 4):
        direct = s0(extremal_family(n)).ratio
        ok = ok and abs(direct - (n - 1) / n) <= 1e-9
    elapsed = time.monotonic() - start
    verdict(
        5,
        ok and elapsed < 300.0,
        "extremal search reproduces 1/2, 2/3, 3/4",
        f"n=2: {results[2]:.9f}, n=3: {results[3]:.9f}, n=4: {results[4]:.9f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_conjecture_sweeps():
    start = time.monotonic()
    findings = {}
    degree2_clean = True
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            certs = list(run_hunt(n, k, 1000, SearchConfig(seed=SEED)).certificates)
            findings[(n, k)] = len(certs)
            if n == 2 and certs:
                degree2_clean = False
            if certs:
                # reportable findings, not failures: surface them loudly
                print(
                    f"  NOTE: {len(certs)} confirmed candidate certificates "
                    f"at (n={n}, k={k}); kinds: {sorted({c.kind for c in certs})}"
                )
    # exit-code contract: a clean sweep exits 0
    proc = _cli("cstar", "--degree", "2", "--dim", "3", "--trials", "100")
    clean_exit = proc.returncode == 0
    elapsed = time.monotonic() - start
    detail = ", ".join(f"({n},{k})={c}" for (n, k), c in sorted(findings.items()))
    verdict(
        6,
        degree2_clean and clean_exit,
        "conjecture sweeps: degree-2 rows empty, others recorded",
        f"{detail}, exit={proc.returncode}, {elapsed:.1f}s",
    )


def test_criterion_7_mlp_dynamics():
    start = time.monotonic()
    certs2, passed2 = hunt_mlp(2, 1000, seed=SEED)
    certs3, passed3 = hunt_mlp(3, 1000, seed=SEED)
    elapsed = time.monotonic() - start
    verdict(
        7,
        passed2 == 1000 and passed3 == 1000 and not certs2 and not certs3
        and elapsed < 30.0,
        "dynamics check true on 10^3 quadratics and 10^3 cubics",
        f"quadratics {passed2}/1000, cubics {passed3}/1000, {elapsed:.1f}s",
    )


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "smale_lab", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def _strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s":[0-9eE+.\-]+,?', "", text)


def test_criterion_8_determinism(tmp_path):
    commands = [
        ("analyze", "--poly", '{"roots":[[0.5,0.5],[-1,0],[0,2]]}', "--samples", "50",
         "--seed", "9"),
        ("cstar", "--degree", "3", "--dim", "2", "--trials", "100", "--seed", "9"),
        ("search", "--mode", "s0", "--degree", "3", "--restarts", "8", "--seed", "9"),
        ("dynamics", "--random-sweep", "2,100", "--seed", "9"),
    ]
    identical = True
    for i, cmd in enumerate(commands):
        out_a = tmp_path / f"a{i}.json"
        out_b = tmp_path / f"b{i}.json"
        proc_a = _cli(*cmd, "--out", str(out_a))
        proc_b = _cli(*cmd, "--out", str(out_b))
        assert proc_a.returncode in (0, 2), proc_a.stderr
        assert proc_a.returncode == proc_b.returncode
        text_a = _strip_wall_time(out_a.read_text())
        text_b = _strip_wall_time(out_b.read_text())
        if text_a != text_b:
            identical = False
        # exit-code contract spot check for the clean sweep case
        if cmd[0] == "cstar":
            assert proc_a.returncode == 0
    verdict(
        8,
        identical,
        "identical seeds give bit-identical reports (wall time excluded)",
    )
