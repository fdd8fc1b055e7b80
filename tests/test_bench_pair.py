"""The summary that bench/pair.py writes into a BENCH file, on synthetic
samples: no subprocess, no git, no benchmark run."""

import importlib.util
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
