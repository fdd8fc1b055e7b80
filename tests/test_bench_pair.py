"""The summary that bench/pair.py writes into a BENCH file, on synthetic
samples, the content id it records, and the chains bench/trend.py draws
from BENCH files, on scratch git repositories: no benchmark run."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pair)


def test_wins_follow_the_metric_direction():
    parent = [10.0, 12.0, 11.0, 13.0]
    change = [9.0, 12.0, 12.0, 10.0]
    lower = pair.summarize(parent, change, "lower")
    assert (lower["change_wins"], lower["parent_wins"], lower["ties"]) == (2, 1, 1)
    higher = pair.summarize(parent, change, "higher")
    assert (higher["change_wins"], higher["parent_wins"], higher["ties"]) == (1, 2, 1)


def test_medians_quartiles_and_ratio():
    s = pair.summarize([5.0, 1.0, 4.0, 2.0, 3.0], [2.0, 4.0, 6.0, 8.0, 10.0], "lower")
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (2.0, 3.0, 4.0)
    assert (s["change"]["q1"], s["change"]["median"], s["change"]["q3"]) == (4.0, 6.0, 8.0)
    assert s["median_ratio"] == 2.0
    assert s["pairs"] == 5
    # samples stay in pair order, so each pair can be read back
    assert s["parent"]["samples"] == [5.0, 1.0, 4.0, 2.0, 3.0]


def test_quartiles_interpolate_between_ranks():
    q1, med, q3 = pair.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, med, q3) == (1.75, 2.5, 3.25)


def test_one_pair_and_identical_samples():
    s = pair.summarize([7.0], [7.0], "higher")
    assert (s["parent"]["q1"], s["parent"]["median"], s["parent"]["q3"]) == (7.0, 7.0, 7.0)
    assert (s["change_wins"], s["parent_wins"], s["ties"]) == (0, 0, 1)
    assert s["median_ratio"] == 1.0


def test_zero_parent_median_has_no_ratio():
    assert pair.summarize([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], "lower")["median_ratio"] is None


@pytest.mark.parametrize(
    "parent, change, better",
    [([1.0, 2.0], [1.0], "lower"), ([], [], "lower"), ([1.0], [2.0], "faster")],
    ids=["unpaired", "empty", "direction"],
)
def test_bad_samples_rejected(parent, change, better):
    with pytest.raises(ValueError):
        pair.summarize(parent, change, better)



def _runs(metrics):
    """One side's runs, one per pair, from {metric name: samples in pair order}."""
    pairs = len(next(iter(metrics.values())))
    return [{"metrics": {name: {"value": v[i]} for name, v in metrics.items()}}
            for i in range(pairs)]


def _spec(name):
    return {"name": name, "unit": "s" if name.endswith("self_s") else "count", "better": "lower"}


def test_self_time_per_call_is_derived_per_run():
    specs = [_spec(name) for name in ("a.calls", "a.self_s", "layer.a.self_s", "b.self_s")]
    by_side = {
        "parent": _runs({"a.calls": [10.0, 20.0], "a.self_s": [1.0, 4.0],
                         "layer.a.self_s": [1.0, 4.0], "b.self_s": [3.0, 3.0]}),
        "change": _runs({"a.calls": [40.0, 40.0], "a.self_s": [2.0, 2.0],
                         "layer.a.self_s": [2.0, 2.0], "b.self_s": [3.0, 3.0]}),
    }
    out = pair.summarize_metrics(specs, by_side)
    # four times the calls in about the same time: the total can rise while
    # the time per call falls
    per = out["a.self_s_per_call"]
    assert per["parent"]["samples"] == [0.1, 0.2]
    assert per["change"]["samples"] == [0.05, 0.05]
    assert (per["change_wins"], per["parent_wins"]) == (2, 0)
    assert (per["unit"], per["better"], per["bound"]) == ("s", "lower", None)
    assert out["a.self_s"]["parent_wins"] == 1
    # a self time with no matching call count gets no per-call metric
    assert list(out) == ["a.calls", "a.self_s", "a.self_s_per_call", "layer.a.self_s", "b.self_s"]


def test_self_time_per_call_is_left_out_when_a_run_made_no_call():
    specs = [_spec("a.calls"), _spec("a.self_s")]
    by_side = {"parent": _runs({"a.calls": [0.0, 5.0], "a.self_s": [0.0, 1.0]}),
               "change": _runs({"a.calls": [5.0, 5.0], "a.self_s": [1.0, 1.0]})}
    assert list(pair.summarize_metrics(specs, by_side)) == ["a.calls", "a.self_s"]


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=root, check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_tree_id_names_the_copied_tree_and_moves_nothing(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / ".gitignore").write_text("*.log\n")
    (tmp_path / "a.py").write_text("a = 1\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    head = _git(tmp_path, "rev-parse", "HEAD")
    # a clean tree is the commit's tree; an ignored file is not copied
    (tmp_path / "run.log").write_text("noise\n")
    assert pair.tree_id(tmp_path) == _git(tmp_path, "rev-parse", "HEAD^{tree}")
    # an edit and an untracked file each give another id
    (tmp_path / "a.py").write_text("a = 2\n")
    edited = pair.tree_id(tmp_path)
    (tmp_path / "b.py").write_text("b = 1\n")
    untracked = pair.tree_id(tmp_path)
    assert len({edited, untracked, _git(tmp_path, "rev-parse", "HEAD^{tree}")}) == 3
    # neither a ref nor the real index moved
    assert _git(tmp_path, "rev-parse", "HEAD") == head
    assert _git(tmp_path, "diff", "--cached", "--name-only") == ""
    assert _git(tmp_path, "ls-files").split() == [".gitignore", "a.py"]
    # the id is the tree git would commit from these files
    _git(tmp_path, "add", "-A")
    assert _git(tmp_path, "write-tree") == untracked


_TREND_PATH = _PATH.parent / "trend.py"
_TREND_SPEC = importlib.util.spec_from_file_location("bench_trend", _TREND_PATH)
trend = importlib.util.module_from_spec(_TREND_SPEC)
_TREND_SPEC.loader.exec_module(trend)


def _bench_file(path, base, change, edited, metrics, pairs=10, trace=0):
    """A synthetic BENCH file: {workload: {metric: (median ratio, change wins)}}."""
    workloads = {w: {"metrics": {m: {"median_ratio": r, "change_wins": wins, "pairs": pairs}
                                 for m, (r, wins) in ms.items()}}
                 for w, ms in metrics.items()}
    env = {"base_commit": base, "change_commit": change,
           "change_has_uncommitted_edits": edited, "pairs": pairs, "trace": trace}
    path.write_text(json.dumps({"environment": env, "workloads": workloads}))


def _commit(root, name, text, message):
    (root / name).parent.mkdir(parents=True, exist_ok=True)
    (root / name).write_text(text)
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", message)
    return _git(root, "rev-parse", "HEAD")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_trend_chains_ratios_in_commit_order_and_names_the_gaps(tmp_path, capsys):
    _git(tmp_path, "init", "-q")
    c0 = _commit(tmp_path, "src/a.py", "a = 0\n", "base")
    # c1's change is recorded with its BENCH file, measured before the commit
    _bench_file(tmp_path / "BENCH_one.json", c0, c0, True,
                {"w": {"p50": (0.5, 10)}, "v": {"p50": (1.1, 2)}})
    _bench_file(tmp_path / "BENCH_trace.json", c0, c0, True,
                {"w": {"x.self_s": (3.0, 0), "x.self_s_per_call": (0.9, 2)}}, pairs=2, trace=1)
    c1 = _commit(tmp_path, "src/a.py", "a = 1\n", "measured")
    c2 = _commit(tmp_path, "src/a.py", "a = 2\n", "not measured")
    _commit(tmp_path, "README", "docs\n", "no src change")
    c4 = _commit(tmp_path, "src/a.py", "a = 4\n", "measured, committed tree")
    # a committed change names its own commit; the same span again, with
    # fewer pairs, is not chained a second time
    _bench_file(tmp_path / "BENCH_two.json", c2, c4, False, {"w": {"p50": (0.8, 9)}})
    _bench_file(tmp_path / "BENCH_again.json", c2, c4, False, {"w": {"p50": (0.1, 5)}}, pairs=5)
    # a file that is not committed yet measured the working tree
    (tmp_path / "src/a.py").write_text("a = 5\n")
    _bench_file(tmp_path / "BENCH_three.json", c4, c4, True, {"w": {"p50": (0.75, 10)}})

    files = [trend.load(p, tmp_path) for p in sorted(tmp_path.glob("BENCH_*.json"))]
    spans = {f["name"]: (f["base"], f["change"]) for f in files}
    assert spans["BENCH_one.json"] == (c0, c1)
    assert spans["BENCH_two.json"] == (c2, c4)
    assert spans["BENCH_three.json"] == (c4, trend.WORKTREE)

    order = trend.commit_order(tmp_path)
    linked, skipped = trend.chains(files, order)
    links = linked[("w", "p50")]
    assert [f["name"] for f, _ in links] == ["BENCH_one.json", "BENCH_two.json",
                                             "BENCH_three.json"]
    assert trend.product(links) == pytest.approx(0.5 * 0.8 * 0.75)
    assert trend.product(linked[("v", "p50")]) == 1.1
    # a traced file chains only its per-call self times
    assert [f["name"] for f, _ in linked[("w", "x.self_s_per_call")]] == ["BENCH_trace.json"]
    assert ("w", "x.self_s") not in linked
    assert [(f["name"], w, g["name"]) for f, w, g in skipped] == [
        ("BENCH_again.json", "w", "BENCH_two.json")]
    # c2 changed src/ and no span covers it; the README commit changed no src
    assert trend.uncovered(files, order, tmp_path) == (c0, [c2])

    assert trend.main([], root=tmp_path) == 0
    out = capsys.readouterr().out
    assert "w p50: 0.300 = 0.500 BENCH_one.json (10/10) x 0.800 BENCH_two.json (9/10)" in out
    assert "not chained: BENCH_again.json w (its span overlaps BENCH_two.json)" in out
    assert out.rstrip().endswith(f"{c2[:7]} not measured")
