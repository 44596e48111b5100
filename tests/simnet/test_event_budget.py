"""Complexity guard: heap events and processes per simulated frame.

Counts, not timings.  A frame on the default busy-wait LAN has four
timed stages — copy-in C, transmit T, propagation tau, copy-out C — and
those, plus one wake-up for a receiver that was really waiting, are all
the heap may be asked to carry.  The deadline of a timed get that was
satisfied in time is withdrawn and never popped; it used to fire as a
sixth, dead event per frame, moving the clock to a deadline nobody
waited for.  A grant of a free resource, a get of a buffered item or the delivery of a
frame is decided where it happens (see docs/architecture.md, "The kernel
rule"); if one of them goes back through the heap these bounds fail.

Every bound fails at PR 16, where the same runs counted 13.77 (raw),
25.9 / 25.0 (stop-and-wait / sliding window), 12.3 (blast) and 36.25
(service) heap events per frame and spawned one process per frame.

Nor may a frame cost more than its waits elsewhere.  A claim of a free
resource builds no event and does not resume its process, so the raw
frame resumes a generator once per timed stage it waits out and builds
one non-timer event, the receiver's get.  Before claims became counts
the same exchange resumed generators 8 times per frame and built 5
events (a ``Request`` for the transmit buffer, the sender's processor,
the wire and the receiver's processor, besides the get).
"""

import pytest

import repro.sim.environment as environment_module
from repro.core import BlastTransfer, DataFrame, run_many
from repro.service import ServiceConfig, run_des_loadgen
from repro.sim import Environment, Event, Process
from repro.sim.processes import Initialize
from repro.simnet import NetworkParams, make_lan


class _CountedGenerator:
    """A process's generator that counts how often it is resumed."""

    def __init__(self, generator, counts):
        self._generator, self._counts = generator, counts

    def send(self, value):
        self._counts["resumes"] += 1
        return self._generator.send(value)

    def throw(self, exception):
        self._counts["resumes"] += 1
        return self._generator.throw(exception)


@pytest.fixture
def kernel_counts(monkeypatch):
    """``{"events": heap pops, "processes": Process objects created,
    "resumes": generator resumes, "objects": Event objects built that are
    neither a Timeout nor a process's own Process / Initialize}``."""
    counts = {"events": 0, "processes": 0, "resumes": 0, "objects": 0}
    real_pop = environment_module.heappop
    real_init = Process.__init__
    real_event_init = Event.__init__

    def counting_pop(heap):
        counts["events"] += 1
        return real_pop(heap)

    def counting_init(self, env, generator):
        counts["processes"] += 1
        real_init(self, env, _CountedGenerator(generator, counts))

    def counting_event_init(self, env):
        if not isinstance(self, (Process, Initialize)):
            counts["objects"] += 1
        real_event_init(self, env)

    monkeypatch.setattr(environment_module, "heappop", counting_pop)
    monkeypatch.setattr(Process, "__init__", counting_init)
    monkeypatch.setattr(Event, "__init__", counting_event_init)
    return counts


def test_raw_frame_costs_its_timed_events(kernel_counts):
    frames = 2_000
    env = Environment()
    sender, receiver, _medium = make_lan(env)
    frame = DataFrame(transfer_id=1, seq=0, total=1, payload=bytes(1024))
    received = []

    def send_all():
        for _ in range(frames):
            yield from sender.send(frame)

    def receive_all():
        for _ in range(frames):
            received.append((yield from receiver.receive(timeout_s=1.0)))

    env.process(send_all())
    env.process(receive_all())
    env.run()   # to exhaustion: no dead deadline hides behind a stop
    assert received == [frame] * frames
    # Five per frame, each process's start and end, and the pop that
    # finds the schedule empty.
    assert kernel_counts["events"] <= 5 * frames + 5
    assert kernel_counts["processes"] == 2
    # Each process's first resume starts it; the rest are the frames'.
    assert (kernel_counts["resumes"] - 2) / frames <= 4.0
    assert kernel_counts["objects"] / frames <= 1.0


@pytest.mark.parametrize("protocol, kwargs, bound", [
    ("stop_and_wait", {}, 12.5),
    ("sliding_window", {}, 12.5),
    ("blast", {"strategy": "gobackn"}, 5.5),
    ("blast", {"strategy": "selective"}, 5.5),
])
def test_protocol_events_per_data_frame(kernel_counts, protocol, kwargs, bound):
    n_runs = 10
    summary = run_many(protocol, bytes(64 * 1024), error_p=0.01,
                       n_runs=n_runs, seed=3, n_jobs=1, **kwargs)
    assert summary.all_intact
    data_frames = summary.mean_data_frames * n_runs
    assert kernel_counts["events"] / data_frames <= bound


def test_service_events_per_data_frame(kernel_counts):
    config = ServiceConfig(protocol="saw", policy="rr", max_active=64,
                           max_queue=1024)
    result = run_des_loadgen(1024, config, sizes="fixed", arrivals="poisson",
                             span_s=1.0, workload_seed=3)
    assert result.ok
    data_frames = result.report["summary"]["data_frames"]
    assert kernel_counts["events"] / data_frames <= 16.0


@pytest.mark.parametrize("params", [
    NetworkParams.standalone(),
    NetworkParams.standalone().with_double_buffering(),
], ids=["busy_wait", "interrupt_driven"])
def test_processes_per_transfer_do_not_grow_with_frames(kernel_counts, params):
    spawned = []
    for kib in (4, 64):
        before = kernel_counts["processes"]
        env = Environment()
        sender, receiver, _medium = make_lan(env, params)
        result = BlastTransfer(env, sender, receiver, bytes(kib * 1024)).run()
        assert result.data_intact
        spawned.append(kernel_counts["processes"] - before)
    assert spawned[0] == spawned[1]
