"""Paired benchmark runs of a base revision against the working tree.

    python3 bench/pair.py --label NAME --base REV [--pairs N] [--seed0 K]
                          [--workload W ...] [--trace 0|1]

The base revision is exported with ``git archive`` and the working tree
(tracked and untracked files that git does not ignore) is copied, each into
a fresh temporary directory.  For pair i (seed K + i) and each workload,
``perfbench/run.py --workload W --seed K+i --seconds S --trace T`` runs once
in each tree, where S is ``run_seconds`` from ``BENCHMARK.json``.  The
parent runs first on even pairs and the change first on odd ones, so slow
drift of a shared host falls on both sides alike.

The result goes to ``BENCH_<NAME>.json`` in the working tree:

* ``environment``: both commits, whether the copied tree differed from
  HEAD (untracked files count), the content id of each measured tree (its
  git tree hash, so an uncommitted change is named too), the Python
  version, ``nproc``, the pairs, seconds and seeds;
* ``workloads.W.metrics.M``: every sample per side in pair order, each
  side's median and quartiles, the pairs each side won (a tie counts for
  neither), the ratio of the medians, and the metric's direction and its
  bound from ``BENCHMARK.json``.  A traced run adds ``X.self_s_per_call``
  (lower is better, no bound) for every span X with ``X.calls`` and
  ``X.self_s``;
* ``workloads.W.digests``: the output digest per seed and side, and
  whether the two are equal;
* ``workloads.W.runs``: ``attempted``, ``failed`` and ``correct`` of every run.

The file states what was measured; it does not judge the change.  Only the
standard library is used, so it runs wherever ``perfbench`` runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_base(rev: str, dest: Path) -> None:
    """The tree of ``rev``, as ``git archive`` writes it."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def tree_id(root: Path = ROOT) -> str:
    """The git tree hash of the working tree as copy_working_tree copies it
    (tracked and untracked files that git does not ignore).  ``git add -A``
    fills a temporary index, so neither the real index nor any ref moves."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        for args in (["add", "-A"], ["write-tree"]):
            out = subprocess.run(["git", *args], cwd=root, env=env, check=True,
                                 capture_output=True, text=True).stdout
    return out.strip()


def copy_working_tree(dest: Path) -> None:
    """Tracked and untracked files that git does not ignore, as they are now."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted from the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), by linear interpolation
    between the closest ranks (``statistics.quantiles``, inclusive)."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Facts about one metric's paired samples; parent[i] and change[i]
    come from pair i.  ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change sample per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    change_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    return {
        "pairs": len(parent),
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "samples": parent},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "samples": change},
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "ties": len(parent) - change_wins - parent_wins,
        "median_ratio": cmed / pmed if pmed else None,
    }


def summarize_metrics(specs: list[dict], by_side: dict[str, list[dict]]) -> dict:
    """The summary of every metric in ``specs`` (``BENCHMARK.json`` entries)
    over the runs of each side, in pair order.  For each span X with both
    ``X.calls`` and ``X.self_s`` it adds ``X.self_s_per_call``, the self
    time per call: a traced run's call count grows with the speed of the
    code, so the totals cannot be compared across commits.  The per-call
    metric is left out when some run made no call."""
    def values(name):
        return {side: [r["metrics"][name]["value"] for r in runs]
                for side, runs in by_side.items()}

    names = {m["name"] for m in specs}
    out = {}
    for m in specs:
        name = m["name"]
        v = values(name)
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m.get("bound"),
                     **summarize(v["parent"], v["change"], m["better"])}
        span = name.removesuffix(".self_s")
        if span == name or span + ".calls" not in names:
            continue
        calls = values(span + ".calls")
        if all(c > 0 for side in calls.values() for c in side):
            per = {side: [t / c for t, c in zip(v[side], calls[side])] for side in v}
            out[span + ".self_s_per_call"] = {"unit": "s", "better": "lower", "bound": None,
                                              **summarize(per["parent"], per["change"], "lower")}
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": -1, "error": f"no result within {RUN_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"exit": proc.returncode, "error": proc.stderr[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["digest"] = json.loads(record.read_text())["digest"]
    result["exit"] = 0
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="pair i runs seed seed0 + i")
    ap.add_argument("--workload", action="append", help="repeatable (default: every workload)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        ap.error(f"unknown workloads {unknown}; BENCHMARK.json has {names}")
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = [args.seed0 + i for i in range(args.pairs)]
    environment = {
        "base_commit": git("rev-parse", args.base),
        "change_commit": git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": bool(git("status", "--porcelain")),
        "base_tree": git("rev-parse", f"{args.base}^{{tree}}"),
        "change_tree": tree_id(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": seeds,
        "trace": args.trace,
        "order": "parent first on even pairs, change first on odd pairs",
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for tree in trees.values():
            tree.mkdir()
        export_base(args.base, trees["parent"])
        copy_working_tree(trees["change"])
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    res = run_once(trees[side], w, seed, seconds, args.trace)
                    runs[w].append({"pair": i, "seed": seed, "side": side, **res})
                    print(f"pair {i} seed {seed} {w:16s} {side:6s} exit {res['exit']}"
                          f" failed {res.get('failed')}", file=sys.stderr, flush=True)
    environment["finished_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    out = {"environment": environment, "workloads": {}}
    for w in workloads:
        by_side = {side: [r for r in runs[w] if r["side"] == side] for side in ("parent", "change")}
        complete = all(r["exit"] == 0 for r in runs[w])
        entry = {
            "runs": [{k: r.get(k) for k in ("pair", "seed", "side", "exit", "attempted", "failed",
                                            "correct", "error") if k in r} for r in runs[w]],
            "digests": {},
            "metrics": {},
        }
        for seed in seeds:
            pair = {r["side"]: r.get("digest") for r in runs[w] if r["seed"] == seed}
            equal = pair["parent"] is not None and pair["parent"] == pair["change"]
            entry["digests"][str(seed)] = {**pair, "equal": equal}
        if complete:
            entry["metrics"] = summarize_metrics(metrics, by_side)
        out["workloads"][w] = entry
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0 if all(r["exit"] == 0 for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
