"""Receive-ring views never outlive their batch.

:meth:`DatagramBatchIO.recv_batch` hands out ``memoryview`` slices of a
receive arena that the next batch overwrites, so a view kept past its
batch silently aliases a later datagram.  After real loopback pulls —
the server's rings through ``deliver_ring`` into ``ServiceCore``, the
client's through ``_PumpClient.on_readable`` into ``PullMachine`` —
the only views over either arena still alive must be the ring's own
slots.  Whatever keeps a view (the core, a machine, a metrics record)
shows up as one more.
"""

import gc
import threading

import pytest

from repro.service.clientpump import UdpClientPump
from repro.service.engine import ServiceConfig
from repro.service.udpservice import UdpTransferService


def views_over(arena):
    """Every live ``memoryview`` whose buffer is ``arena``."""
    gc.collect()
    return [o for o in gc.get_objects()
            if type(o) is memoryview and o.obj is arena]


@pytest.mark.parametrize("protocol", ["blast", "sliding"])
def test_only_the_ring_slots_view_the_arenas_after_a_pull(protocol):
    service = UdpTransferService(ServiceConfig(protocol=protocol))
    server = threading.Thread(
        target=service.serve,
        kwargs={"expected_streams": 2, "duration_s": 20.0}, daemon=True)
    server.start()
    pump = UdpClientPump(service.address, [8192, 3000], protocol=protocol)
    pulls = pump.run()
    server.join(timeout=25)
    service.sock.close()
    assert not server.is_alive()
    assert [pull.ok for pull in pulls.values()] == [True, True]
    for io in (service.io, pump.clients[0].io):
        slots = io._arenas.slots
        views = views_over(slots[0].obj)
        assert sorted(map(id, views)) == sorted(map(id, slots)), (
            f"{len(views)} live views over a {len(slots)}-slot ring")
