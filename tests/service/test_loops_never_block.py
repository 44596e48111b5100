"""Neither the server loop nor the client pump ever blocks.

Each service runs in one loop that multiplexes every transfer, so one
unbounded wait anywhere below it stalls them all.  These tests serve a
loopback ``UdpTransferService.serve`` to a ``UdpClientPump`` with a
profile hook on both threads, which sees every call the two loops
make — into ``core/wire.py``, ``congestion/``, the fault layer, and
through every dynamic dispatch.  A loop fails if anything it reaches

- calls ``time.sleep``,
- receives on a socket whose timeout is not 0 (a blocking socket), or
- calls a ``selectors`` selector's ``select`` with no timeout.

They run for blast and sliding, the fixed and Reno controllers, with no
faults and under the builtin ``dup+reorder`` plan.
"""

import selectors
import socket
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import wire
from repro.faults.plans import builtin_plan
from repro.service.clientpump import UdpClientPump
from repro.service.engine import ServiceConfig
from repro.service.udpservice import UdpTransferService

CLIENTS = 3
SIZE = 16 * 1024
RECEIVES = frozenset(("recv", "recvfrom", "recv_into", "recvfrom_into",
                      "recvmsg", "recvmsg_into", "accept"))


class BlockingCallRecorder:
    """A profile function recording every blocking call, per thread."""

    def __init__(self):
        self.blocking = []
        self.selects = Counter()   # bounded selects seen, by thread
        self.decodes = Counter()   # wire.decode calls seen, by thread

    def _record(self, what, frame):
        where = f"{Path(frame.f_code.co_filename).name}:{frame.f_lineno}"
        self.blocking.append(
            f"{threading.current_thread().name}: {what} at {where} "
            f"in {frame.f_code.co_name}()")

    def __call__(self, frame, event, arg):
        if event == "c_call":
            if arg is time.sleep:
                self._record("time.sleep()", frame)
            elif (getattr(arg, "__name__", None) in RECEIVES
                    and isinstance(getattr(arg, "__self__", None),
                                   socket.SocketType)
                    and arg.__self__.gettimeout() != 0.0):
                self._record(f"{arg.__name__}() on a blocking socket", frame)
        elif event == "call":
            code = frame.f_code
            if code is wire.decode.__code__:
                self.decodes[threading.current_thread().name] += 1
            elif (code.co_name == "select"
                    and code.co_filename == selectors.__file__):
                timeout = frame.f_locals.get("timeout")
                if timeout is None or timeout < 0:
                    self._record("select() with no timeout", frame.f_back)
                else:
                    self.selects[threading.current_thread().name] += 1


@contextmanager
def profiled(recorder):
    """Run the body with ``recorder`` profiling this thread, in front of
    any profiler already there (a coverage or reachability run)."""
    previous = sys.getprofile()

    def both(frame, event, arg):
        recorder(frame, event, arg)
        previous(frame, event, arg)

    sys.setprofile(recorder if previous is None else both)
    try:
        yield
    finally:
        sys.setprofile(previous)


def _run(recorder, protocol, congestion, plan):
    """Serve ``CLIENTS`` pulls with ``recorder`` profiling both loops."""
    service = UdpTransferService(
        ServiceConfig(protocol=protocol, congestion=congestion),
        fault_plan=None if plan is None else builtin_plan(plan),
        fault_seed=11)
    served = []

    def serve():
        with profiled(recorder):
            served.append(service.serve(expected_streams=CLIENTS,
                                        duration_s=30.0))

    thread = threading.Thread(target=serve, name="serve", daemon=True)
    thread.start()
    pump = UdpClientPump(service.address, [SIZE] * CLIENTS,
                         protocol=protocol, recv_timeout_s=8.0)
    try:
        with profiled(recorder):
            pulls = pump.run(overall_timeout_s=30.0)
    finally:
        service.stop()
        # A loop parked in select() with no timeout wakes on any datagram.
        poke = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        poke.sendto(b"stop", service.address)
        poke.close()
        thread.join(timeout=10.0)
        service.close()
    return served, pulls


@pytest.mark.parametrize("plan", [None, "dup+reorder"])
@pytest.mark.parametrize("congestion", ["fixed", "reno"])
@pytest.mark.parametrize("protocol", ["blast", "sliding"])
def test_serve_and_pump_never_block(protocol, congestion, plan):
    recorder = BlockingCallRecorder()
    served, pulls = _run(recorder, protocol, congestion, plan)
    assert recorder.blocking == []
    assert served == [True]
    assert sorted(pulls) == list(range(1, CLIENTS + 1))
    assert all(pull.ok and pull.payload_ok for pull in pulls.values())
    # The hook ran on both threads, where the frames are decoded and the
    # loops wait.
    main = threading.main_thread().name
    assert recorder.selects["serve"] and recorder.selects[main]
    assert recorder.decodes["serve"] and recorder.decodes[main]
