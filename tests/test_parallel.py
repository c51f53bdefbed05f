"""`ordered_map`: input order, serial fallbacks, and failures in workers."""

import multiprocessing
import os
import threading

import pytest

from ratiomarker import parallel
from ratiomarker.parallel import ordered_map


class Picky(Exception):
    """An exception its pickle cannot rebuild: __init__ needs two args."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_results_come_back_in_input_order(cpus):
    items = [5, 3, 8, 1, 9, 2, 7]
    assert list(ordered_map(lambda x: x * x, items)) == [x * x for x in items]


def test_closures_run_in_forked_workers(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    parent = os.getpid()
    captured = {"offset": 100}  # a closure, which no pickle could carry
    got = list(ordered_map(lambda x: (os.getpid(), x + captured["offset"]), range(4)))
    assert [value for _, value in got] == [100, 101, 102, 103]
    assert all(pid != parent for pid, _ in got)
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_in_process(monkeypatch, forbid_pool):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
    assert set(ordered_map(lambda _: os.getpid(), range(3))) == {os.getpid()}


def test_one_item_runs_in_process(monkeypatch, forbid_pool):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    assert list(ordered_map(lambda _: os.getpid(), [0])) == [os.getpid()]


def test_without_fork_runs_in_process(monkeypatch, forbid_pool):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert set(ordered_map(lambda _: os.getpid(), range(3))) == {os.getpid()}


def test_another_thread_keeps_it_in_process(monkeypatch, forbid_pool):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(10,))
    other.start()
    try:
        got = set(ordered_map(lambda _: os.getpid(), range(3)))
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert got == {os.getpid()}


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parallel._cpu_count() == 3


def test_exception_reaches_the_caller_and_stops_the_workers(cpus):
    def task(x):
        if x == 3:
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match="^bad item 3$"):
        list(ordered_map(task, range(6)))
    assert multiprocessing.active_children() == []


def test_exception_that_cannot_be_unpickled_is_named(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)

    def task(x):
        if x == 1:
            raise Picky("left", "right")
        return x

    with pytest.raises(RuntimeError, match="^Picky: left and right$"):
        list(ordered_map(task, range(4)))
    assert multiprocessing.active_children() == []


def test_nested_call_in_a_worker_runs_serially(monkeypatch):
    # A pool worker is a daemon, which may not start children of its own.
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)

    def outer(x):
        return x, os.getpid(), list(ordered_map(lambda y: (y, os.getpid()), range(3)))

    got = list(ordered_map(outer, range(2)))
    assert [x for x, _, _ in got] == [0, 1]
    for _, pid, inner in got:
        assert pid != os.getpid()
        assert inner == [(0, pid), (1, pid), (2, pid)]
    assert multiprocessing.active_children() == []
