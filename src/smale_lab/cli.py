"""Command line front end.

Exit codes follow a strict contract so CI can tell outcomes apart:

* 0: run completed and every check is consistent with the proved theorems
     and the conjectured inequalities;
* 2: run completed but produced candidate counterexample certificates
     (a mathematical finding, not a software failure);
* 1: usage error, malformed input, or a numerical failure (including a
     violated theorem-status bound, which can only be a software bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .dynamics import OrbitConfig, mlp_check, orbit
from .errors import SmaleLabError
from .polycore import Poly, is_normalized, poly_from_json
from .report import (
    complex_pair,
    dumps,
    poly_payload,
    scalar_report_to_json,
    search_state_to_json,
    write_report,
)
from .rootfind import RootFindConfig, cached_critical_points
from .search import (
    SearchConfig,
    hunt_mlp,
    run_hunt,
    search_extremal_ds0,
    search_extremal_s0,
)
from .smale import CONJ_SLACK, SampleConfig, bound_report
from .verify import Certificate, confirm_normalized

DEFAULT_SEED = 42


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out: str | None


def _default_seed() -> int:
    env = os.environ.get("SMALE_LAB_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise SmaleLabError(f"SMALE_LAB_SEED must be an integer, got {env!r}")


def _count(text: str) -> int:
    """argparse type for a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smale-lab",
        description="Mean value quantities of complex polynomials and their "
        "sup-norm function-algebra analogues.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None, help="RNG seed (default 42, or SMALE_LAB_SEED)")
        sp.add_argument("--out", type=str, default=None, help="report output path (default stdout)")

    def hunt_knobs(sp):
        # None when unset: the library default applies, and s0/ds0 reject a given knob
        sp.add_argument("--step-tol", type=float, help=f"root iteration relative step tolerance (default {RootFindConfig.step_tol})")
        sp.add_argument("--max-iters", type=int, help=f"max root iteration sweeps (default {RootFindConfig.max_iters})")
        sp.add_argument("--cluster-tol", type=float, help="root clustering distance (default 1e-7 x Cauchy bound)")
        sp.add_argument("--jobs", type=_count, help="worker cap for trial loops (default 1)")

    sp = sub.add_parser("analyze", help="quotient statistics and theorem bounds for one polynomial")
    sp.add_argument("--poly", required=True, help='polynomial as JSON: {"coeffs": [[re,im],...]} or {"roots": ...}')
    sp.add_argument("--normalized", action="store_true", help="require p(0)=0, p'(0)=1 and report the normalized quantities")
    sp.add_argument("--samples", type=_count, default=200)
    common(sp)

    sp = sub.add_parser("cstar", help="randomized conjecture sweep over algebra polynomials")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--dim", type=int, required=True, help="number of Gelfand points k")
    sp.add_argument("--trials", type=_count, required=True)
    sp.add_argument("--strong", action="store_true", help="also check the operator-order strong forms")
    common(sp)
    hunt_knobs(sp)

    sp = sub.add_parser("search", help="extremal search / counterexample hunt")
    sp.add_argument("--mode", choices=("s0", "ds0", "cstar"), required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--dim", type=int, default=1)
    sp.add_argument("--restarts", type=_count, default=64)
    sp.add_argument("--trials", type=_count, default=1000)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp)
    hunt_knobs(sp)

    sp = sub.add_parser("dynamics", help="critical orbit checks")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="normalized polynomial as JSON")
    group.add_argument("--random-sweep", metavar="N,TRIALS", help="sweep random normalized degree-N polynomials")
    common(sp)
    return parser


def _emit(payload: dict, cfg: RunConfig, csv_rows: list[str] | None = None) -> None:
    """Write the JSON report, or csv_rows in its place when given."""
    if csv_rows is not None:
        text = "\n".join(csv_rows) + "\n"
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    if cfg.out:
        write_report(cfg.out, payload)
    else:
        sys.stdout.write(dumps(payload) + "\n")


def _parse_poly(raw: str) -> Poly:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SmaleLabError(f"--poly is not valid JSON: {exc}") from exc
    return poly_from_json(obj)


_ROOT_KNOBS = ("step_tol", "max_iters", "cluster_tol")


def _hunt_knobs(ns) -> dict:
    given = {k: getattr(ns, k) for k in _ROOT_KNOBS if getattr(ns, k) is not None}
    return {
        "rootcfg": RootFindConfig(**given),
        "jobs": 1 if ns.jobs is None else ns.jobs,
    }


def _normalized_certificate(kind, p: Poly, seed, key, value, slack) -> Certificate | None:
    """An exact-checked s0_sharp or ds0_dual certificate for normalized p,
    or None when value lies within slack of the conjectured (n-1)/n or 1/n."""
    n = p.degree
    if kind == "s0_sharp":
        bound, exact_key = Fraction(n - 1, n), "exact_min_ratio_sq"
        beyond = value > (n - 1) / n + slack
    else:
        bound, exact_key = Fraction(1, n), "exact_max_ratio_sq"
        beyond = value < 1.0 / n - slack
    if not beyond:
        return None
    ratio_sq, confirmed = confirm_normalized(
        kind, p.coeffs, cached_critical_points(p).roots, bound
    )
    return Certificate(
        kind=kind,
        degree=n,
        dim=1,
        trial=0,
        seed=seed,
        confirmed=confirmed,
        data={"poly": poly_payload(p), key: value, exact_key: ratio_sq},
    )


def _cmd_analyze(ns, cfg: RunConfig) -> int:
    start = time.monotonic()
    p = _parse_poly(ns.poly)
    if ns.normalized and not is_normalized(p):
        raise SmaleLabError("--normalized given but p(0) != 0 or p'(0) != 1")
    sampler = SampleConfig(n_samples=ns.samples, seed=cfg.seed)
    rep = bound_report(p, sampler)

    certificates: list[Certificate] = []
    if rep.s0 is not None and rep.ds0 is not None:
        for kind, key, value in (("s0_sharp", "s0", rep.s0), ("ds0_dual", "ds0", rep.ds0)):
            cert = _normalized_certificate(kind, p, cfg.seed, key, value, CONJ_SLACK)
            if cert is not None and cert.confirmed:
                certificates.append(cert)

    payload = {
        "kind": "analyze",
        "seed": cfg.seed,
        "samples": ns.samples,
        "poly": poly_payload(p),
        "normalized": is_normalized(p),
        "report": scalar_report_to_json(rep),
        "certificates": [c.to_json() for c in certificates],
        "wall_time_s": time.monotonic() - start,
    }
    _emit(payload, cfg)
    if not rep.all_theorems_pass:
        sys.stderr.write("theorem-status bound violated: software bug\n")
        return 1
    return 2 if certificates else 0


def _cmd_cstar(ns, cfg: RunConfig) -> int:
    start = time.monotonic()
    scfg = SearchConfig(seed=cfg.seed)
    result = run_hunt(
        ns.degree,
        ns.dim,
        ns.trials,
        scfg,
        strong=ns.strong,
        **_hunt_knobs(ns),
    )
    payload = {
        "kind": "cstar",
        "model": f"C({ns.dim} points)",
        "degree": ns.degree,
        "dim": ns.dim,
        "trials": ns.trials,
        "seed": cfg.seed,
        "strong": ns.strong,
        "stats": {
            "trials_run": result.stats.trials_run,
            "trials_skipped": result.stats.trials_skipped,
            "worst_min_ratio": result.stats.worst_min_ratio,
            "best_min_ratio": result.stats.best_min_ratio,
            "worst_max_ratio": result.stats.worst_max_ratio,
            "sharp_margin": result.stats.sharp_margin,
            "dual_margin": result.stats.dual_margin,
        },
        "certificates": [c.to_json() for c in result.certificates],
        "wall_time_s": time.monotonic() - start,
    }
    _emit(payload, cfg)
    return 2 if result.certificates else 0


def _cmd_search(ns, cfg: RunConfig) -> int:
    start = time.monotonic()
    n = ns.degree
    scfg = SearchConfig(restarts=ns.restarts, seed=cfg.seed)
    if ns.mode == "cstar":
        result = run_hunt(n, ns.dim, ns.trials, scfg, **_hunt_knobs(ns))
        certificates = result.certificates
        k, best, bound = ns.dim, result.stats.worst_min_ratio, (n - 1) / n
        payload = {
            "dim": ns.dim,
            "trials": ns.trials,
            "worst_min_ratio": result.stats.worst_min_ratio,
            "worst_max_ratio": result.stats.worst_max_ratio,
        }
    else:
        given = [
            "--" + key.replace("_", "-")
            for key in (*_ROOT_KNOBS, "jobs")
            if getattr(ns, key) is not None
        ]
        if given:
            raise SmaleLabError(f"--mode {ns.mode} does not take {', '.join(given)}")
        if ns.mode == "s0":
            state = search_extremal_s0(n, scfg)
            k, best, bound, kind = 1, state.objective, (n - 1) / n, "s0_sharp"
        else:
            state = search_extremal_ds0(n, scfg)
            k, best, bound, kind = 1, state.objective, 1.0 / n, "ds0_dual"
        # beyond the conjectured value the searched extreme is a candidate finding
        cert = _normalized_certificate(
            kind, state.best_poly, cfg.seed, "objective", state.objective, 1e-6
        )
        certificates = [] if cert is None else [cert]
        payload = {
            "restarts": ns.restarts,
            "conjectured_value": bound,
            "state": search_state_to_json(state),
        }
    payload.update(
        kind="search",
        mode=ns.mode,
        degree=n,
        seed=cfg.seed,
        certificates=[c.to_json() for c in certificates],
        wall_time_s=time.monotonic() - start,
    )
    rows = None
    if ns.format == "csv":
        header = "n,k,best_value,bound,pass"
        rows = [header, f"{n},{k},{best:.17g},{bound:.17g},{not certificates}"]
    _emit(payload, cfg, rows)
    return 2 if certificates else 0


def _cmd_dynamics(ns, cfg: RunConfig) -> int:
    start = time.monotonic()
    ocfg = OrbitConfig()
    if ns.poly is not None:
        p = _parse_poly(ns.poly)
        ok, res = mlp_check(p, ocfg)
        crits = cached_critical_points(p).roots
        orbits = []
        for w in crits:
            r = orbit(p, w, ocfg)
            orbits.append(
                {
                    "w0": complex_pair(r.w0),
                    "ratio": r.ratio,
                    "verdict": r.verdict,
                    "trajectory_len": r.trajectory_len,
                    "final_modulus": r.final_modulus,
                }
            )
        payload = {
            "kind": "dynamics",
            "seed": cfg.seed,
            "poly": poly_payload(p),
            "mlp_pass": ok,
            "witness": complex_pair(res.w0),
            "orbits": orbits,
            "certificates": [],
            "wall_time_s": time.monotonic() - start,
        }
        _emit(payload, cfg)
        return 0 if ok else 2

    try:
        deg_text, trials_text = ns.random_sweep.split(",")
        degree = int(deg_text)
        trials = int(trials_text)
    except ValueError:
        raise SmaleLabError("--random-sweep expects N,TRIALS (e.g. 3,100)")
    if trials < 1:
        raise SmaleLabError(f"--random-sweep TRIALS must be at least 1, got {trials}")
    certs, passed = hunt_mlp(degree, trials, seed=cfg.seed, cfg=ocfg)
    payload = {
        "kind": "dynamics",
        "seed": cfg.seed,
        "sweep_degree": degree,
        "trials": trials,
        "passed": passed,
        "certificates": [c.to_json() for c in certs],
        "wall_time_s": time.monotonic() - start,
    }
    _emit(payload, cfg)
    return 2 if certs else 0


def run(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        seed = ns.seed if ns.seed is not None else _default_seed()
        cfg = RunConfig(seed=seed, out=ns.out)
        handler = {
            "analyze": _cmd_analyze,
            "cstar": _cmd_cstar,
            "search": _cmd_search,
            "dynamics": _cmd_dynamics,
        }[ns.subcommand]
        return handler(ns, cfg)
    except SmaleLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
