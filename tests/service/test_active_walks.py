"""ServiceCore never walks its active table outside the one rebuild.

The core keeps a deadline heap and a ready-set so that ``poll``,
``drain_sends``, ``on_frame`` and ``next_deadline`` cost what is due,
not what is active.  The one full walk of ``_active`` is
``_rebuild_client_index``, paid only after admissions or finishes
change the set of clients.  These tests drive a core through admission,
queueing, grants and acks from real ``PullMachine``\\ s at 64 and at
1,024 streams with ``_active`` swapped for a dict that records which
function iterated it — so a walk hidden in a helper is caught too.
"""

import sys
from collections import Counter
from heapq import heappop, heappush

import pytest

from repro.service.engine import ServiceConfig, ServiceCore
from repro.service.pullclient import PullMachine

from .drained import drained

NEVER_S = 1.0e6
CLIENTS = 8
LATENCIES = tuple(0.0011 + 0.00037 * i for i in range(CLIENTS))


class WalkCountingDict(dict):
    """A dict that counts full walks, keyed by the calling function."""

    def __init__(self):
        super().__init__()
        self.walks = Counter()

    def _walked(self):
        # Frame 0 is this method, 1 the dict method, 2 its caller.
        self.walks[sys._getframe(2).f_code.co_name] += 1

    def __iter__(self):
        self._walked()
        return super().__iter__()

    def keys(self):
        self._walked()
        return super().keys()

    def values(self):
        self._walked()
        return super().values()

    def items(self):
        self._walked()
        return super().items()


def _run(streams):
    """Pull ``streams`` bodies through one core; returns its walk counts."""
    core = ServiceCore(ServiceConfig(
        protocol="saw", policy="rr", packet_bytes=64, timeout_s=NEVER_S,
        grants_per_poll=16, max_active=streams // 2, max_queue=streams))
    core._active = WalkCountingDict()
    pulls = {}
    now = 0.0
    for stream_id in range(1, streams + 1):
        pull = PullMachine(stream_id, 256, "saw", "selective",
                           pull_timeout_s=NEVER_S, pull_retries=1,
                           recv_timeout_s=NEVER_S, linger_s=NEVER_S)
        client = f"c{stream_id % CLIENTS}"
        for request in pull.start(now):
            for verdict, _client in core.on_frame(request, now,
                                                  client=client):
                pull.on_frame(verdict, now)
        pulls[stream_id] = pull

    acks = []
    order = 0
    for wakeup in range(100 * streams):
        if core.finished_count == streams:
            break
        sends = (drained(core, now, 32) if wakeup % 2
                 else core.poll(now))
        for frame, _client in sends:
            latency = LATENCIES[frame.stream_id % CLIENTS]
            for reply in pulls[frame.stream_id].on_frame(frame, now):
                order += 1
                heappush(acks, (now + latency, order, reply))
        deadline = core.next_deadline(now)
        if deadline is not None and deadline <= now:
            continue  # more grants due at this instant
        times = [t for t in (deadline, acks[0][0] if acks else None)
                 if t is not None]
        if not times:
            break
        now = min(times)
        while acks and acks[0][0] <= now:
            core.on_frame(heappop(acks)[2], now)

    assert core.finished_count == streams
    assert all(pull.result is not None and pull.result.ok
               for pull in pulls.values())
    return core._active.walks


@pytest.mark.parametrize("streams", [64, 1024])
def test_no_active_table_walk_outside_the_client_index_rebuild(streams):
    walks = _run(streams)
    # The sanctioned walk is seen (the counter works) and is the only one.
    assert set(walks) == {"_rebuild_client_index"}, walks
    # It is paid per membership change, never per wakeup: at most one
    # rebuild per admission or finish.
    assert walks["_rebuild_client_index"] <= 2 * streams
