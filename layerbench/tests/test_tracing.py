"""Span arithmetic and probes that outlive refactors."""

import sys
import types

from layerbench.ledger import _Spans
from layerbench.tracing import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def spend(self, ns):
        self.now += ns


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.spend(5)

    leaf_t = tracer.wrap("leaf", leaf)

    def middle():
        clock.spend(10)
        leaf_t()
        leaf_t()
        clock.spend(1)

    middle_t = tracer.wrap("middle", middle)

    def root():
        clock.spend(100)
        middle_t()
        leaf_t()
        clock.spend(7)

    tracer.wrap("root", root)()
    totals = tracer.dump()["totals"]
    assert totals["leaf"] == {"calls": 3, "total_ns": 15, "self_ns": 15,
                              "units": 0}
    # middle: 10 + 5 + 5 + 1 in total, 11 of its own.
    assert totals["middle"]["total_ns"] == 21
    assert totals["middle"]["self_ns"] == 11
    # root: the grandchildren are middle's to subtract, not root's.
    assert totals["root"]["total_ns"] == 133
    assert totals["root"]["self_ns"] == 133 - 21 - 5
    # Self times over the whole tree account for the root exactly.
    assert sum(t["self_ns"] for t in totals.values()) == 133
    spans = {span[0]: span for span in tracer.raw_spans}
    assert len(spans) == 5
    root_id = [s for s in spans.values() if s[2] == "root"][0][0]
    middle_id = [s for s in spans.values() if s[2] == "middle"][0][0]
    parents = sorted(s[1] for s in spans.values() if s[2] == "leaf")
    assert parents == sorted([middle_id, middle_id, root_id])


def test_recursion_and_exceptions_keep_the_stack_balanced():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def down(n):
        clock.spend(1)
        if n == 0:
            raise ValueError("bottom")
        return down_t(n - 1)

    down_t = tracer.wrap("down", down)
    try:
        down_t(3)
    except ValueError:
        pass
    row = tracer.dump()["totals"]["down"]
    assert row["calls"] == 4
    assert row["self_ns"] == 4           # one tick each, nothing counted twice
    assert row["total_ns"] == 4 + 3 + 2 + 1
    assert tracer._stack == []


def test_result_counter_and_raw_span_cap():
    tracer = Tracer(clock=FakeClock(), max_raw_spans=2)
    batch = tracer.wrap("recv", lambda n: [0] * n, count=len)
    for n in (3, 0, 4):
        batch(n)
    assert tracer.dump()["totals"]["recv"]["units"] == 7
    assert len(tracer.raw_spans) == 2


def _stub_module(name):
    module = types.ModuleType(name)
    module.kept = lambda: "kept"
    module.doomed = lambda: "doomed"
    sys.modules[name] = module
    return module


def test_deleted_target_reads_null_and_never_fails(capsys):
    stub = _stub_module("layerbench_stub_layer")
    try:
        del stub.doomed               # the refactor that removed a name
        tracer = Tracer()
        tracer.install([
            ("stub.kept", "layerbench_stub_layer:kept", None),
            ("stub.doomed", "layerbench_stub_layer:doomed", None),
            ("stub.gone_module", "layerbench_no_such_module:f", None),
            # One of two targets of a key survives: the key still reports.
            ("stub.kept", "layerbench_stub_layer:doomed", None),
        ])
        assert stub.kept() == "kept"
        dump = tracer.dump()
        assert dump["missing"] == ["layerbench_stub_layer:doomed",
                                   "layerbench_no_such_module:f",
                                   "layerbench_stub_layer:doomed"]
        assert dump["missing_keys"] == ["stub.doomed", "stub.gone_module"]
        spans = _Spans(dump)
        assert spans.get("stub.kept", "calls") == 1
        assert spans.get("stub.doomed", "calls") is None
        assert spans.ratio("stub.doomed", "total_ns", 10) is None
        assert spans.get("stub.never_installed", "calls") == 0   # idle layer
        tracer.uninstall()
        assert not hasattr(stub.kept, "__wrapped__")
    finally:
        del sys.modules["layerbench_stub_layer"]
