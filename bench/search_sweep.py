"""Run the extremal searches over a range of seeds and count what the
restart stop rule did.

    PYTHONPATH=src python3 bench/search_sweep.py [--seeds A:B] [--restarts N]
                                                 [--mode s0|ds0 ...]

For each mode (by default both) and each seed in ``range(A, B)`` it runs
``search_extremal_ds0(4, ...)`` or ``search_extremal_s0(3, ...)`` with a cap
of N restarts (default 8, as the ``search-dynamics`` benchmark runs them)
and prints:

* gate misses: searches whose objective is more than 1e-6 from the known
  extremal value (1/4 for ds0 at n = 4, 2/3 for s0 at n = 3), with their
  seeds;
* the polish count: searches that reached the cap with no two restarts
  agreeing;
* a histogram of ``restarts_done``, the restarts each search reported.

The output depends only on the arguments, not on the CPU count.
"""

from __future__ import annotations

import argparse
from collections import Counter

from smale_lab.search import SearchConfig, search_extremal_ds0, search_extremal_s0

GATE = 1e-6
# mode -> (search, degree, the known extremal value)
MODES = {
    "ds0": (search_extremal_ds0, 4, 1 / 4),
    "s0": (search_extremal_s0, 3, 2 / 3),
}


def seed_range(text: str) -> range:
    a, _, b = text.partition(":")
    return range(int(a), int(b))


def sweep(mode: str, seeds: range, restarts: int) -> str:
    search, n, target = MODES[mode]
    misses = []
    polished = 0
    done = Counter()
    for seed in seeds:
        state = search(n, SearchConfig(restarts=restarts, seed=seed))
        if abs(state.objective - target) > GATE:
            misses.append(seed)
        polished += state.polished
        done[state.restarts_done] += 1
    lines = [
        f"{mode} n={n} restarts<={restarts} seeds {seeds.start}..{seeds.stop - 1} "
        f"({len(seeds)} searches)",
        f"  gate misses (|objective - {target:.6g}| > {GATE:g}): {len(misses)}"
        + (f" at seeds {misses}" if misses else ""),
        f"  polished: {polished}",
        "  restarts_done: " + ", ".join(f"{k}: {done[k]}" for k in sorted(done)),
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=range(0, 1000),
                    help="A:B runs seeds A .. B-1 (default 0:1000)")
    ap.add_argument("--restarts", type=int, default=8, help="the restart cap (default 8)")
    ap.add_argument("--mode", action="append", choices=sorted(MODES),
                    help="repeatable (default: ds0 and s0)")
    ns = ap.parse_args(argv)
    for mode in ns.mode or ["ds0", "s0"]:
        print(sweep(mode, ns.seeds, ns.restarts), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
