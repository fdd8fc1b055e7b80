"""smale-lab benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--seed N] [--seconds S]

Workloads (see ``workloads.py`` for why each one exists): ``bounds``,
``points``, ``hunt`` and ``search-dynamics``.  Each is a closed loop: one
process, one thread, each call waited for before the next.

``--trace 0`` measures with nothing wrapped, in a fresh interpreter, so
every run starts with empty lru caches; inputs never repeat within a run.
It reports the ``end_to_end`` metrics of ``BENCHMARK.json``:

* ``setup_s``: import the package and make the first call cold, median of
  seven fresh interpreters (the measuring one and six more);
* ``throughput``: units per second of time spent in the program (reports,
  points, hunt trials or CLI commands), median over windows;
* ``call_p50_ms`` and ``call_tail_ms``: per window, the median call and the
  call with ten calls beyond it; the median over windows is reported;
* these four are in host-scaled seconds: each run also times a fixed
  kernel (``reference.py``, about 2% of the run) and scales its times by the
  kernel's rate over ``reference.RATE``, which cancels the shared host's
  speed drift.  Unscaled values and the kernel's rate (also the per-layer
  ``host.ref_rate``) are in the record;
* ``peak_rss_mb``: maximum resident memory of the measuring process;
* ``s_estimate_mean`` / ``ds_estimate_mean``: mean of the workload's
  one-sided estimates over its fixed digest prefix, deterministic per seed
  (bound_report estimates, each polynomial's best sampled s_at/ds_at
  ratios, hunt worst ratios, searched extremal objectives).

``--trace 1`` runs the same inputs twice in fresh interpreters, untraced and
then with every package boundary wrapped from outside (``tracer.py``), and
reports the ``per_layer`` metrics: calls, self times and counts per module,
``trace.overhead_ratio`` (traced over untraced time in the program) and
``error_ratio``.

Both check outputs: a failed gate or a call that raises counts in
``failed``; a failed gate on a proved result, or two runs of one seed whose
output digests differ, makes ``correct`` false.  The last line of standard
output is the JSON result; the full record (environment, samples behind
each percentile, digests) goes to ``perfbench/out/``.  ``--record`` runs
every workload both ways and writes ``perfbench/record.json``; later runs
of the same seed say when their output digest differs from it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("bounds", "points", "hunt", "search-dynamics")
SETUP_SAMPLES = 7
TRACE_SHARE = 0.4  # of --seconds, for the untraced pass a traced run repeats
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def git_commit() -> str:
    """HEAD of the checkout's own git directory, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def recorded_digest(workload: str, seed: int) -> str | None:
    """Output digest that ``record.json`` holds for this workload and seed."""
    try:
        rec = json.loads((HERE / "record.json").read_text())[workload]["untraced"]
    except (OSError, KeyError):
        return None
    return rec["digest"] if rec["environment"]["seed"] == seed else None


def child(mode: str, workload: str, seed: int, scratch: str, **extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--scratch", scratch]
    for key, val in extra.items():
        cmd += [f"--{key}", str(val)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, scratch: str) -> dict:
    main = child("measure", workload, seed, scratch, seconds=seconds)
    setups = [child("setup", workload, seed, scratch) for _ in range(SETUP_SAMPLES - 1)]
    run, windows = main["run"], main["run"]["windows"]
    firsts = [main["first"]] + [s["first"] for s in setups]
    raw = {
        "setup_s": statistics.median([main["setup_s"]] + [s["setup_s"] for s in setups]),
        "throughput": statistics.median(w["throughput"] for w in windows),
        "call_p50_ms": 1e3 * statistics.median(w["p50_s"] for w in windows),
        "call_tail_ms": 1e3 * statistics.median(w["tail_s"] for w in windows),
    }
    speed = run["ref_rate"] / reference.RATE
    metrics = {name: val / speed if name == "throughput" else val * speed for name, val in raw.items()}
    metrics.update(peak_rss_mb=main["peak_rss_mb"], s_estimate_mean=run["s_estimate_mean"],
                   ds_estimate_mean=run["ds_estimate_mean"])
    return {
        "metrics": metrics,
        "unscaled": raw,
        "ref_rate": run["ref_rate"],
        "attempted": run["attempted"] + sum(f["attempted"] for f in firsts),
        "failed": run["failed"] + sum(f["failed"] for f in firsts),
        "theorem_failed": run["theorem_failed"] + sum(f["theorem_failed"] for f in firsts),
        "consistent": len({f["digest"] for f in firsts}) == 1,
        "digest": run["digest"],
        "samples": {
            "windows": len(windows),
            "calls_per_window": [w["calls"] for w in windows],
            "tail_percentile": statistics.median(w["tail_pct"] for w in windows),
            "setup": SETUP_SAMPLES,
            "estimates": run["estimates"],
        },
        "setup_samples_s": [main["setup_s"]] + [s["setup_s"] for s in setups],
        "windows": windows,
        "versions": main["versions"],
    }


def trace(workload: str, seed: int, seconds: float, scratch: str) -> dict:
    plain = child("measure", workload, seed, scratch, seconds=TRACE_SHARE * seconds)
    steps = plain["run"]["steps"]
    traced = child("traced", workload, seed, scratch, steps=steps)
    metrics = dict(traced["layers"])
    metrics["host.ref_rate"] = plain["run"]["ref_rate"]
    metrics["trace.overhead_ratio"] = traced["run"]["busy_s"] / plain["run"]["busy_s"]
    runs = [plain["first"], plain["run"], traced["first"], traced["run"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics["error_ratio"] = failed / attempted
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "theorem_failed": sum(r["theorem_failed"] for r in runs),
        "consistent": (plain["first"]["digest"] == traced["first"]["digest"]
                       and plain["run"]["digest"] == traced["run"]["digest"]
                       and traced.get("jobs_output_equal", True)),
        "digest": traced["run"]["digest"],
        "samples": {"steps": steps},
        "versions": plain["versions"],
    }


def run_one(spec: dict, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT)
    try:
        res = (trace if traced else measure)(workload, seed, seconds, scratch)
    finally:
        for name in os.listdir(scratch):
            os.remove(os.path.join(scratch, name))
        os.rmdir(scratch)
    wanted = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in wanted if res["metrics"].get(m["name"]) is None]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    res["metrics"] = {m["name"]: res["metrics"][m["name"]] for m in wanted}
    res["correct"] = res["theorem_failed"] == 0 and res["consistent"]
    res["digest_matches_record"] = recorded_digest(workload, seed) in (None, res["digest"])
    res["environment"] = dict(res.pop("versions"), nproc=os.cpu_count(), commit=git_commit(),
                              workload=workload, seed=seed, seconds=seconds, trace=int(traced))
    with open(OUT / f"{workload}-seed{seed}-trace{int(traced)}.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    for m in wanted:
        print(f"{workload:16s} {m['name']:42s} {res['metrics'][m['name']]:.6g} {m['unit']}"
              f" ({m['better']} is better)")
    if not res["digest_matches_record"]:
        print(f"{workload}: outputs differ from perfbench/record.json at seed {seed}")
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="run every workload both ways")
    args = ap.parse_args(argv)
    if (args.workload is None) == (not args.record):
        ap.error("give --workload or --record")

    if not (ROOT / "src" / "smale_lab" / "__init__.py").is_file():
        print(f"error: no smale_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.record:
            record = {}
            for w in WORKLOADS:
                record[w] = {"untraced": run_one(spec, w, args.seed, seconds, False),
                             "traced": run_one(spec, w, args.seed, seconds, True)}
                record[w]["untraced"].pop("windows")
            (HERE / "record.json").write_text(json.dumps(record, indent=1) + "\n")
            return 0 if all(r[k]["correct"] for r in record.values() for k in r) else 1
        res = run_one(spec, args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
