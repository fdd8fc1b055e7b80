"""Chain the change/parent ratios of the BENCH files across commits.

    python3 bench/trend.py [BENCH_FILE ...]

With no arguments every ``BENCH_*.json`` at the repository root is read.
Raw medians do not compare across files, because the host drifts from one
file to the next; the change/parent ratio of medians within one file does.  So for
each workload and metric this multiplies the ratios of the files in
commit order and prints the chain, each link with the pairs the change won.

A file measured the span from ``environment.base_commit`` to the commit
that holds its change: ``change_commit`` when the measured tree had no
uncommitted edits, else the last commit that touched the file (a change
is recorded with its BENCH file), or the working tree when the file is
not committed yet.  Links of one chain never overlap: of two files whose
spans share a commit for a workload, the one with the wider span, then
more pairs, then more workloads is chained, and the other is listed as
not chained.  Untraced files chain their end-to-end metrics; traced files
(``environment.trace`` 1) chain ``X.self_s_per_call`` only, since traced
totals grow with the number of calls that fit in a run.

Last, it names the commits after the oldest base that change ``src/`` and
that no file's span covers.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "worktree"  # the change of a file that is not committed yet


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def load(path: Path, root: Path) -> dict:
    """One BENCH file with its measured span: base and change commits (full
    hashes; the change may be WORKTREE) and the commits the span covers."""
    data = json.loads(path.read_text())
    env = data["environment"]
    base = git(root, "rev-parse", env["base_commit"])
    if not env.get("change_has_uncommitted_edits"):
        change = git(root, "rev-parse", env["change_commit"])
    else:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        tracked = git(root, "ls-files", "--", rel)
        last = git(root, "log", "-1", "--format=%H", "--", rel) if tracked else ""
        change = last or WORKTREE
    head = "HEAD" if change == WORKTREE else change
    covered = set(git(root, "rev-list", f"{base}..{head}").split())
    if change == WORKTREE:
        covered.add(WORKTREE)
    return {"name": path.name, "base": base, "change": change, "covered": covered,
            "trace": bool(env.get("trace")), "pairs": env.get("pairs", 0),
            "workloads": {w: e.get("metrics", {}) for w, e in data["workloads"].items()}}


def commit_order(root: Path) -> dict[str, int]:
    """Position of every commit reachable from HEAD, oldest first; the
    working tree comes after HEAD."""
    order = {c: i for i, c in enumerate(git(root, "rev-list", "--reverse", "HEAD").split())}
    order[WORKTREE] = len(order)
    return order


def chains(files: list[dict], order: dict[str, int]) -> tuple[dict, list[tuple]]:
    """{(workload, metric): [(file, summary), ...] in commit order} for the
    metrics each file chains, and the (file, workload, file it overlaps)
    triples left out so that no commit is counted twice."""
    rank = sorted(files, key=lambda f: (-len(f["covered"]), -f["pairs"], -len(f["workloads"]),
                                        order[f["change"]]))
    out: dict[tuple[str, str], list] = {}
    skipped = []
    for trace in (False, True):
        taken: dict[str, list[dict]] = {}
        for f in (f for f in rank if f["trace"] == trace):
            for w, metrics in f["workloads"].items():
                clash = next((g for g in taken.get(w, []) if g["covered"] & f["covered"]), None)
                if clash is not None:
                    skipped.append((f, w, clash))
                    continue
                taken.setdefault(w, []).append(f)
                for m, summary in metrics.items():
                    if not trace or m.endswith(".self_s_per_call"):
                        out.setdefault((w, m), []).append((f, summary))
    for links in out.values():
        links.sort(key=lambda link: order[link[0]["change"]])
    return out, skipped


def product(links) -> float | None:
    ratios = [s.get("median_ratio") for _, s in links]
    return None if None in ratios else math.prod(ratios)


def uncovered(files: list[dict], order: dict[str, int], root: Path) -> tuple[str, list[str]]:
    """The oldest base, and the commits after it, up to HEAD, that change
    src/ and that no file's span covers, oldest first."""
    start = min((f["base"] for f in files), key=order.__getitem__)
    changed = git(root, "rev-list", "--reverse", f"{start}..HEAD", "--", "src").split()
    covered = set().union(*(f["covered"] for f in files))
    return start, [c for c in changed if c not in covered]


def fmt(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.3f}"


def report(files: list[dict], root: Path) -> str:
    order = commit_order(root)
    files = sorted(files, key=lambda f: (order[f["change"]], f["name"]))
    short = {c: c if c == WORKTREE else c[:7] for f in files for c in (f["base"], f["change"])}
    lines = ["BENCH files in commit order (base..change, pairs, workloads):"]
    for f in files:
        kind = "traced" if f["trace"] else "end to end"
        lines.append(f"  {f['name']}  {short[f['base']]}..{short[f['change']]}  "
                     f"{f['pairs']} pairs  {kind}  {' '.join(f['workloads'])}")
    linked, skipped = chains(files, order)
    for trace in (False, True):
        title = "Traced chains (X.self_s_per_call)" if trace else "End-to-end chains"
        lines.append(f"\n{title}: product = links (change wins/pairs) in commit order")
        for (w, m), links in linked.items():
            if links[0][0]["trace"] != trace:
                continue
            parts = " x ".join(f"{fmt(s.get('median_ratio'))} {f['name']} "
                               f"({s.get('change_wins')}/{s.get('pairs')})" for f, s in links)
            lines.append(f"  {w} {m}: {fmt(product(links))} = {parts}")
    for f, w, clash in skipped:
        lines.append(f"not chained: {f['name']} {w} (its span overlaps {clash['name']})")
    start, gaps = uncovered(files, order, root)
    lines.append(f"\nCommits after {start[:7]} that change src/ and no BENCH file covers:")
    for c in gaps:
        lines.append("  " + git(root, "log", "-1", "--format=%h %s", c))
    if not gaps:
        lines.append("  none")
    return "\n".join(lines)


def main(argv=None, root: Path = ROOT) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="*", type=Path, help="default: BENCH_*.json at the root")
    args = ap.parse_args(argv)
    paths = args.files or sorted(root.glob("BENCH_*.json"))
    if not paths:
        ap.error(f"no BENCH_*.json files in {root}")
    print(report([load(p, root) for p in paths], root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
