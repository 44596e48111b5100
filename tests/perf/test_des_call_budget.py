"""Complexity guard: Python-level calls per simulated frame.

Counts, not timings, in the style of ``test_call_budget.py``: the
simulator is walked under ``sys.setprofile``, which reports one ``call``
event per Python function entered (and per generator resumed).  A frame
pays for its four timed stages and for what is decided on its way —
the grants, the error model's one answer, the get it lands in — and
for nothing else (docs/performance.md, "A frame pays for its stages").

Before deadlines were withdrawn, the same walks counted 58.0 calls per
raw frame and 100.2 per ``des_transfer`` data frame (39.0 and 75.3
since): the deadline of every satisfied timed get still fired as a dead
event, each read of ``Environment.now`` was a property call, each copy
looked up its processor and its cost model, the wire time was a
method, and the medium asked the error model four questions per frame.
"""

import random

from repro.core import DataFrame, run_many
from repro.sim import Environment
from repro.simnet import make_lan

from .test_call_budget import counted_calls

FRAMES = 2_000
#: ``des_transfer``'s grid (layerbench/des_worker.py), ten runs a cell.
TRANSFER_GRID = (
    ("stop_and_wait", {}),
    ("sliding_window", {}),
    ("blast", {"strategy": "full_no_nak"}),
    ("blast", {"strategy": "gobackn"}),
    ("blast", {"strategy": "selective"}),
)


def test_raw_frame_calls():
    """Raw 1 KiB frames one way on the default LAN, each received by a
    timed get, run to exhaustion; the driver's own two generators are
    not counted."""
    env = Environment()
    sender, receiver, _medium = make_lan(env)
    frame = DataFrame(transfer_id=1, seq=0, total=1, payload=bytes(1024))

    def send_all():
        for _ in range(FRAMES):
            yield from sender.send(frame)

    def receive_all():
        for _ in range(FRAMES):
            yield from receiver.receive(timeout_s=1.0)

    env.process(send_all())
    env.process(receive_all())
    with counted_calls() as calls:
        env.run()
    del calls["send_all"], calls["receive_all"]
    assert sum(calls.values()) / FRAMES <= 39.5, calls.most_common(12)


def test_des_transfer_data_frame_calls():
    """64 KiB at 1 % loss through every protocol of ``des_transfer``."""
    data = random.Random(1).randbytes(64 * 1024)
    frames = 0
    with counted_calls() as calls:
        for protocol, kwargs in TRANSFER_GRID:
            summary = run_many(protocol, data, error_p=0.01, n_runs=10,
                               seed=1, n_jobs=1, **kwargs)
            assert summary.all_intact
            frames += summary.mean_data_frames * 10
    assert sum(calls.values()) / frames <= 76.0, calls.most_common(12)
