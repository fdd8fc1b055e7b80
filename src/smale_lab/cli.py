"""Command line front end.

Exit codes follow a strict contract so CI can tell outcomes apart:

* 0: run completed and every check is consistent with the proved theorems
     and the conjectured inequalities;
* 2: run completed but produced candidate counterexample certificates
     (a mathematical finding, not a software failure; ``dynamics --poly``
     emits an ``mlp`` certificate when no critical orbit gives a witness);
* 1: usage error, malformed input, or a numerical failure (including a
     violated theorem-status bound, which can only be a software bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Sequence
from dataclasses import asdict
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
)
from .rootfind import RootFindConfig, cached_critical_points
from .search import (
    SearchConfig,
    hunt_mlp,
    mlp_certificate,
    run_hunt,
    search_extremal_ds0,
    search_extremal_s0,
)
from .smale import CONJ_SLACK, SampleConfig, bound_report
from .verify import Certificate, confirm_normalized

DEFAULT_SEED = 42

# what a subcommand handler returns to run: its kind-specific report body,
# its certificates, and the CSV text that replaces the JSON report, or None
Outcome = tuple[dict, Sequence[Certificate], str | None]


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
    sp.add_argument("--dim", type=int, help="cstar mode: number of Gelfand points (default 1)")
    sp.add_argument("--restarts", type=_count, help=f"s0/ds0 modes: search restarts (default {SearchConfig.restarts})")
    sp.add_argument("--trials", type=_count, help="cstar mode: hunt trials (default 1000)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp)
    hunt_knobs(sp)

    sp = sub.add_parser("dynamics", help="critical orbit checks")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="normalized polynomial as JSON")
    group.add_argument("--random-sweep", metavar="N,TRIALS", help="sweep random normalized degree-N polynomials")
    common(sp)
    return parser


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


def _cmd_analyze(ns, seed: int) -> Outcome:
    p = _parse_poly(ns.poly)
    if ns.normalized and not is_normalized(p):
        raise SmaleLabError("--normalized given but p(0) != 0 or p'(0) != 1")
    rep = bound_report(p, SampleConfig(n_samples=ns.samples, seed=seed))

    certificates: list[Certificate] = []
    if rep.s0 is not None and rep.ds0 is not None:
        for kind, key, value in (("s0_sharp", "s0", rep.s0), ("ds0_dual", "ds0", rep.ds0)):
            cert = _normalized_certificate(kind, p, seed, key, value, CONJ_SLACK)
            if cert is not None and cert.confirmed:
                certificates.append(cert)

    body = {
        "samples": ns.samples,
        "poly": poly_payload(p),
        "normalized": is_normalized(p),
        "report": scalar_report_to_json(rep),
    }
    return body, certificates, None


def _cmd_cstar(ns, seed: int) -> Outcome:
    result = run_hunt(
        ns.degree,
        ns.dim,
        ns.trials,
        SearchConfig(seed=seed),
        strong=ns.strong,
        **_hunt_knobs(ns),
    )
    body = {
        "model": f"C({ns.dim} points)",
        "degree": ns.degree,
        "dim": ns.dim,
        "trials": ns.trials,
        "strong": ns.strong,
        "stats": asdict(result.stats),
    }
    return body, result.certificates, None


# the optional search flags each mode reads (None when unset); a mode rejects the others
_SEARCH_OPTIONS = {"s0": ("restarts",), "ds0": ("restarts",), "cstar": ("dim", "trials", *_ROOT_KNOBS, "jobs")}


def _cmd_search(ns, seed: int) -> Outcome:
    n = ns.degree
    foreign = [
        "--" + key.replace("_", "-")
        for key in ("restarts", *_SEARCH_OPTIONS["cstar"])
        if key not in _SEARCH_OPTIONS[ns.mode] and getattr(ns, key) is not None
    ]
    if foreign:
        raise SmaleLabError(f"--mode {ns.mode} does not take {', '.join(foreign)}")
    if ns.mode == "cstar":
        dim = 1 if ns.dim is None else ns.dim
        trials = 1000 if ns.trials is None else ns.trials
        result = run_hunt(n, dim, trials, SearchConfig(seed=seed), **_hunt_knobs(ns))
        certificates = result.certificates
        k, best, bound = dim, result.stats.worst_min_ratio, (n - 1) / n
        body = {
            "dim": dim,
            "trials": trials,
            "worst_min_ratio": result.stats.worst_min_ratio,
            "worst_max_ratio": result.stats.worst_max_ratio,
        }
    else:
        scfg = SearchConfig(seed=seed) if ns.restarts is None else SearchConfig(restarts=ns.restarts, seed=seed)
        if ns.mode == "s0":
            state = search_extremal_s0(n, scfg)
            k, best, bound, kind = 1, state.objective, (n - 1) / n, "s0_sharp"
        else:
            state = search_extremal_ds0(n, scfg)
            k, best, bound, kind = 1, state.objective, 1.0 / n, "ds0_dual"
        # beyond the conjectured value the searched extreme is a candidate finding
        cert = _normalized_certificate(
            kind, state.best_poly, seed, "objective", state.objective, 1e-6
        )
        certificates = [] if cert is None else [cert]
        body = {
            "restarts": scfg.restarts,
            "conjectured_value": bound,
            "state": search_state_to_json(state),
        }
    body.update(mode=ns.mode, degree=n)
    csv = None
    if ns.format == "csv":
        csv = f"n,k,best_value,bound,pass\n{n},{k},{best:.17g},{bound:.17g},{not certificates}\n"
    return body, certificates, csv


def _cmd_dynamics(ns, seed: int) -> Outcome:
    ocfg = OrbitConfig()
    if ns.poly is not None:
        p = _parse_poly(ns.poly)
        ok, res = mlp_check(p, ocfg)
        runs = [orbit(p, w, ocfg) for w in cached_critical_points(p).roots]
        body = {
            "poly": poly_payload(p),
            "mlp_pass": ok,
            "witness": complex_pair(res.w0),
            "orbits": [{**asdict(r), "w0": complex_pair(r.w0)} for r in runs],
        }
        certificates = [] if ok else [mlp_certificate(p, res, 0, seed)]
        return body, certificates, None

    try:
        deg_text, trials_text = ns.random_sweep.split(",")
        degree = int(deg_text)
        trials = int(trials_text)
    except ValueError:
        raise SmaleLabError("--random-sweep expects N,TRIALS (e.g. 3,100)")
    if trials < 1:
        raise SmaleLabError(f"--random-sweep TRIALS must be at least 1, got {trials}")
    certs, passed = hunt_mlp(degree, trials, seed=seed, cfg=ocfg)
    body = {"sweep_degree": degree, "trials": trials, "passed": passed}
    return body, certs, None


_COMMANDS = {
    "analyze": _cmd_analyze,
    "cstar": _cmd_cstar,
    "search": _cmd_search,
    "dynamics": _cmd_dynamics,
}


def run(argv) -> int:
    """Run one subcommand and write its report; returns the exit code.

    The envelope every report shares (kind, seed, certificates,
    wall_time_s) and the exit rule are stated here once.
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # a missing --out directory is reported before the run, not after it
    if ns.out and not os.path.isdir(os.path.dirname(ns.out) or "."):
        sys.stderr.write(f"error: cannot write --out {ns.out}: no such directory\n")
        return 1
    start = time.monotonic()
    try:
        seed = ns.seed if ns.seed is not None else _default_seed()
        body, certificates, text = _COMMANDS[ns.subcommand](ns, seed)
    except SmaleLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    body.update(
        kind=ns.subcommand,
        seed=seed,
        certificates=[c.to_json() for c in certificates],
        wall_time_s=time.monotonic() - start,
    )
    if text is None:
        text = dumps(body) + "\n"
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write --out {ns.out}: {exc.strerror or exc}\n")
            return 1
    else:
        sys.stdout.write(text)
    if ns.subcommand == "analyze" and not body["report"]["all_theorems_pass"]:
        sys.stderr.write("theorem-status bound violated: software bug\n")
        return 1
    return 2 if certificates else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
