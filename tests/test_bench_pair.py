"""The summary that bench/pair.py writes into a BENCH file, on synthetic
samples, and the content id it records, on a scratch git repository: no
benchmark run."""

import importlib.util
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
