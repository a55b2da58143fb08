"""run_suite splits a suite's independent units over forked processes and
returns the report that one process makes."""

import os
import sys
import threading
from collections import Counter

import pytest

from cat0sigma import verify
from cat0sigma.errors import ParameterOutOfRange


def counted_forks(monkeypatch) -> list:
    """Patch os.fork to note each call in the parent before forking."""
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(verify.SPLIT_UNITS))
def test_split_run_equals_one_process(name, seed, monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 3)
    forks = counted_forks(monkeypatch)
    split = verify.run_suite(name, seed=seed)
    assert len(forks) == min(3, verify.SPLIT_UNITS[name]) - 1
    assert split.to_json() == verify.SUITES[name](seed=seed, part=(0, 1)).to_json()


@pytest.mark.parametrize("name", ["sphere", "treesigma"])
def test_no_more_processes_than_the_cap(name, monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 64)
    forks = counted_forks(monkeypatch)
    split = verify.run_suite(name, seed=0)
    assert len(forks) == verify.MAX_PROCESSES - 1
    assert split.to_json() == verify.SUITES[name](seed=0).to_json()


# The functions that each case of a suite drawing from one generator is checked with.
CHECKED_WITH = {"sphere": [(verify, "m_value")], "treesigma": [(verify.ts, "mfpr_lengths"), (verify.ts, "sigma_table")]}


def checked_arguments(monkeypatch, name: str, seed: int, part: tuple) -> Counter:
    """The multiset of arguments that the part of the suite checks with."""
    calls = Counter()
    with monkeypatch.context() as m:
        for module, attr in CHECKED_WITH[name]:

            def record(*args, real=getattr(module, attr), attr=attr):
                calls[attr, repr(args)] += 1
                return real(*args)

            m.setattr(module, attr, record)
        verify.SUITES[name](seed=seed, part=part)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(CHECKED_WITH))
def test_the_parts_check_the_cases_of_one_process(name, seed, monkeypatch):
    whole = checked_arguments(monkeypatch, name, seed, (0, 1))
    assert whole
    for n in (2, 3):
        parts = [checked_arguments(monkeypatch, name, seed, (rank, n)) for rank in range(n)]
        assert sum(parts, Counter()) == whole


@pytest.mark.parametrize("name", sorted(verify.SPLIT_UNITS))
def test_split_units_count_the_largest_loop(name):
    units = verify.SPLIT_UNITS[name]
    past_the_end = verify.SUITES[name](seed=0, part=(units, units + 1))
    assert all(c.passed + c.failed == 0 for c in past_the_end.checks)
    last = verify.SUITES[name](seed=0, part=(units - 1, units))
    assert any(c.passed + c.failed for c in last.checks)


def test_failures_in_a_child_are_counted(monkeypatch):
    parent, record = os.getpid(), verify.CheckResult.record

    def failing_in_the_child(self, ok, err=None):
        record(self, ok and os.getpid() == parent, err)

    monkeypatch.setattr(verify.CheckResult, "record", failing_in_the_child)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    split = verify.run_suite("tits", seed=0)
    own, child = (verify.suite_tits(seed=0, part=(rank, 2)) for rank in (0, 1))
    assert all(c.ok for c in own.checks + child.checks)
    assert [(c.passed, c.failed) for c in split.checks] == [(a.passed, b.passed) for a, b in zip(own.checks, child.checks)]


def raising_in(monkeypatch, in_parent: bool, exc: Exception):
    """Make the tits suite's end draws raise exc in the parent or in the child."""
    parent, draw = os.getpid(), verify._random_ends

    def ends(M, count, seed):
        if (os.getpid() == parent) == in_parent:
            raise exc
        return draw(M, count, seed)

    monkeypatch.setattr(verify, "_random_ends", ends)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)


def test_a_child_exception_reaches_the_caller(monkeypatch):
    raising_in(monkeypatch, False, ParameterOutOfRange("drawn in a child"))
    with pytest.raises(ParameterOutOfRange, match="^drawn in a child$"):
        verify.run_suite("tits", seed=0)


def test_an_exception_that_cannot_be_sent_arrives_as_its_text(monkeypatch):
    class Local(Exception):
        pass

    raising_in(monkeypatch, False, Local("not picklable"))
    with pytest.raises(RuntimeError, match="^Local: not picklable$"):
        verify.run_suite("tits", seed=0)


def test_a_parent_exception_still_reaps_the_child(monkeypatch):
    raising_in(monkeypatch, True, ParameterOutOfRange("drawn in the parent"))
    forks = counted_forks(monkeypatch)
    with pytest.raises(ParameterOutOfRange, match="^drawn in the parent$"):
        verify.run_suite("tits", seed=0)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_fork():
    raise AssertionError("forked")


def run_traced(name, set_hook):
    previous = sys.gettrace() if set_hook is sys.settrace else sys.getprofile()
    set_hook(lambda *args: None)
    try:
        return verify.run_suite(name, seed=1)
    finally:
        set_hook(previous)


def run_beside_a_thread(name):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        return verify.run_suite(name, seed=1)
    finally:
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.mark.parametrize(
    "cpus, run",
    [
        (1, lambda name: verify.run_suite(name, seed=1)),
        (2, lambda name: run_traced(name, sys.settrace)),
        (2, lambda name: run_traced(name, sys.setprofile)),
        (2, run_beside_a_thread),
    ],
    ids=["one-cpu", "trace-hook", "profile-hook", "live-thread"],
)
def test_nothing_forks_when_one_process_must_run_it_all(cpus, run, monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", no_fork)
    for name in ("tits", "sphere", "treesigma"):
        assert run(name).to_json() == verify.SUITES[name](seed=1).to_json()
