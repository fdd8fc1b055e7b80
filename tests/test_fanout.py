"""fanout.fan_out: forked workers give the sequential loop's results and
errors, in index order, and leave no child process behind."""

import os
import threading

import pytest

from conftest import set_cpus
from smale_lab import cli, search
from smale_lab.dynamics import OrbitConfig
from smale_lab.errors import DomainError, RootFindError, SmaleLabError
from smale_lab.fanout import fan_out
from smale_lab.search import SearchConfig, hunt_mlp, search_extremal_ds0, search_extremal_s0


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_chunks_run_in_one_process_each_and_merge_in_order(monkeypatch):
    set_cpus(monkeypatch, 3)
    assert threading.active_count() == 1  # else fan_out would not fork
    got = fan_out(lambda i: (i, os.getpid()), 7)
    assert [i for i, _ in got] == list(range(7))
    pids = [pid for _, pid in got]
    # contiguous chunks 0-1, 2-3, 4-6; the first runs in this process
    assert pids[:2] == [os.getpid()] * 2
    assert len({pids[2], pids[3]}) == len({pids[4], pids[5], pids[6]}) == 1
    assert len(set(pids)) == 3
    assert_no_children()


def test_in_process_for_one_unit_one_worker_or_running_threads(monkeypatch):
    set_cpus(monkeypatch, 3)
    assert fan_out(lambda i: os.getpid(), 1) == [os.getpid()]
    assert fan_out(lambda i: os.getpid(), 4, workers=1) == [os.getpid()] * 4
    assert fan_out(lambda i: i, 0) == []
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert fan_out(lambda i: os.getpid(), 4) == [os.getpid()] * 4
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_searches_and_sweeps_equal_at_every_worker_count(cpus, monkeypatch):
    set_cpus(monkeypatch, 1)
    want = (
        search_extremal_s0(3, SearchConfig(restarts=5, seed=3)),
        search_extremal_ds0(4, SearchConfig(restarts=4, seed=3)),
        hunt_mlp(3, 30, seed=8),
        # no orbit steps: every trial is a certificate, in trial order
        hunt_mlp(4, 7, seed=8, cfg=OrbitConfig(max_iters=0)),
    )
    assert len(want[3][0]) == 7 and want[3][1] == 0
    set_cpus(monkeypatch, cpus)
    got = (
        search_extremal_s0(3, SearchConfig(restarts=5, seed=3)),
        search_extremal_ds0(4, SearchConfig(restarts=4, seed=3)),
        hunt_mlp(3, 30, seed=8),
        hunt_mlp(4, 7, seed=8, cfg=OrbitConfig(max_iters=0)),
    )
    assert got == want
    assert [c.trial for c in got[3][0]] == list(range(7))
    assert_no_children()


def test_child_error_reraised_with_its_attributes_earliest_chunk_wins(monkeypatch):
    set_cpus(monkeypatch, 3)

    def unit(i):
        if i >= 2:  # chunks 0-1, 2-3 and 4-5: the last two raise
            raise RootFindError(f"unit {i} failed", roots=(1j, 2.0), residuals=(0.5,))
        return i

    with pytest.raises(RootFindError) as caught:
        fan_out(unit, 6)
    assert str(caught.value) == "unit 2 failed"
    assert caught.value.roots == (1j, 2.0)
    assert caught.value.residuals == (0.5,)
    assert_no_children()


def test_error_in_this_process_wins_over_children(monkeypatch):
    set_cpus(monkeypatch, 3)

    def unit(i):
        raise DomainError(f"unit {i}")

    with pytest.raises(DomainError, match="^unit 0$"):
        fan_out(unit, 6)
    assert_no_children()


def test_child_that_dies_is_an_error_not_a_partial_result(monkeypatch):
    set_cpus(monkeypatch, 2)
    parent = os.getpid()

    def unit(i):
        if os.getpid() != parent:
            os._exit(3)
        return i

    with pytest.raises(SmaleLabError, match=r"units 2\.\.3 sent no result \(exit status 3\)"):
        fan_out(unit, 4)
    assert_no_children()


def test_argument_errors_raised_before_any_fork(monkeypatch, capsys):
    set_cpus(monkeypatch, 3)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(DomainError, match="^normalized draws need degree >= 2$"):
        hunt_mlp(1, 10)
    with pytest.raises(DomainError, match="^trials must be at least 1, got 0$"):
        hunt_mlp(3, 0)
    with pytest.raises(DomainError, match="^search supports degrees 2..12, got 13$"):
        search._search(13, SearchConfig(restarts=4), maximize=True)
    assert cli.run(["dynamics", "--random-sweep", "1,10"]) == 1
    assert "normalized draws need degree >= 2" in capsys.readouterr().err
