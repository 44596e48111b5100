"""Every worker a cluster test starts is joined by the code under test.

A spawn-context ``Process`` that is started and never joined leaks a
child and hides its exit code from the coordinator's failure detector.
The spy below records each process started through the spawn context
and each ``join`` called from outside the test modules; when the test
ends, every process it started must have been joined that way, and
none may still be alive.
"""

import multiprocessing
import sys

import pytest


@pytest.fixture(autouse=True)
def workers_are_joined(monkeypatch):
    process_class = multiprocessing.get_context("spawn").Process
    start, join = process_class.start, process_class.join
    started, joined = [], []

    def spy_start(self):
        started.append(self)
        start(self)

    def spy_join(self, timeout=None):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if not caller.startswith("tests."):
            joined.append(self)
        join(self, timeout)

    monkeypatch.setattr(process_class, "start", spy_start)
    monkeypatch.setattr(process_class, "join", spy_join)
    yield
    unjoined = [p for p in started if not any(p is q for q in joined)]
    alive = [p for p in started if p.is_alive()]
    for process in started:  # leave no child behind, whatever failed
        if process.is_alive():
            process.kill()
        join(process, 10.0)
    assert unjoined == [] and alive == [], (
        f"{len(unjoined)} worker(s) never joined by the code under test, "
        f"{len(alive)} still alive when the test ended")
