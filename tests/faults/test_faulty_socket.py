"""FaultySocket: plan replay over real loopback datagrams."""

import socket

import pytest

from repro.core.frames import DataFrame
from repro.core.wire import WireError, decode, encode
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.socket import FaultySocket
from repro.simnet.errors import DeterministicDrops


def _udp_socket():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    return sock


def _datagram(seq, payload=b"payload!"):
    return encode(DataFrame(transfer_id=1, seq=seq, total=16, payload=payload))


def _plan(*rules, name="t", seed=0):
    return FaultPlan(name=name, rules=tuple(rules), seed=seed)


@pytest.fixture()
def pair():
    """(faulty, peer): a plan-free wrapper and a raw peer socket."""
    left = _udp_socket()
    right = _udp_socket()
    right.settimeout(2.0)
    yield left, right
    left.close()
    right.close()


def _wrap(raw, *rules, error_model=None, seed=0):
    plan = _plan(*rules, seed=seed) if rules else None
    return FaultySocket(raw, error_model=error_model, plan=plan)


class TestSendSide:
    def test_transparent_without_plan(self, pair):
        left, right = pair
        faulty = _wrap(left)
        faulty.sendto(_datagram(0), right.getsockname())
        datagram, _ = right.recvfrom(65536)
        assert decode(datagram).seq == 0
        assert faulty.datagrams_sent == 1
        assert faulty.datagrams_dropped == 0

    def test_plan_drop_swallows_datagram(self, pair):
        left, right = pair
        faulty = _wrap(
            left, FaultRule(action="drop", kinds=("data",), indices=(0,))
        )
        faulty.sendto(_datagram(0), right.getsockname())
        faulty.sendto(_datagram(1), right.getsockname())
        datagram, _ = right.recvfrom(65536)
        assert decode(datagram).seq == 1
        assert faulty.datagrams_dropped == 1
        assert faulty.loss_rate == 0.5
        assert faulty.faults_injected["drop"] == 1

    def test_plan_duplicate_sends_copies(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="duplicate", kinds=("data",), indices=(0,), count=2),
        )
        faulty.sendto(_datagram(0), right.getsockname())
        seqs = [decode(right.recvfrom(65536)[0]).seq for _ in range(3)]
        assert seqs == [0, 0, 0]
        assert faulty.faults_injected["duplicate"] == 2

    def test_plan_reorder_swaps_neighbours(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="reorder", kinds=("data",), indices=(0,), depth=1),
        )
        faulty.sendto(_datagram(0), right.getsockname())
        faulty.sendto(_datagram(1), right.getsockname())
        seqs = [decode(right.recvfrom(65536)[0]).seq for _ in range(2)]
        assert seqs == [1, 0]

    def test_plan_delay_holds_until_due(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="delay", kinds=("data",), indices=(0,), delay_s=0.05),
        )
        faulty.sendto(_datagram(0), right.getsockname())
        faulty.sendto(_datagram(1), right.getsockname())
        assert decode(right.recvfrom(65536)[0]).seq == 1
        # The next socket use past the due time releases the held datagram.
        import time

        time.sleep(0.06)
        faulty.sendto(_datagram(2), right.getsockname())
        seqs = [decode(right.recvfrom(65536)[0]).seq for _ in range(2)]
        assert sorted(seqs) == [0, 2]

    def test_detectable_corruption_fails_crc(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="corrupt", kinds=("data",), indices=(0,)),
        )
        faulty.sendto(_datagram(0), right.getsockname())
        datagram, _ = right.recvfrom(65536)
        with pytest.raises(WireError):
            decode(datagram)

    def test_silent_corruption_decodes_with_wrong_bytes(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(
                action="corrupt", kinds=("data",), indices=(0,),
                corrupt_mask=0x0F, silent=True,
            ),
        )
        faulty.sendto(_datagram(0, payload=b"payload!"), right.getsockname())
        frame = decode(right.recvfrom(65536)[0])
        assert frame.payload != b"payload!"
        assert len(frame.payload) == len(b"payload!")

    def test_legacy_error_model_still_applies(self, pair):
        left, right = pair
        faulty = _wrap(left, error_model=DeterministicDrops([0]))
        faulty.sendto(_datagram(0), right.getsockname())
        faulty.sendto(_datagram(1), right.getsockname())
        assert decode(right.recvfrom(65536)[0]).seq == 1
        assert faulty.datagrams_dropped == 1


class TestReceiveSide:
    def test_plan_drop_counts_on_recv_ledger(self, pair):
        left, right = pair
        faulty = _wrap(
            left, FaultRule(action="drop", kinds=("data",), direction="recv",
                            indices=(0,))
        )
        faulty.settimeout(2.0)
        right.sendto(_datagram(0), left.getsockname())
        right.sendto(_datagram(1), left.getsockname())
        datagram, _ = faulty.recvfrom(65536)
        assert decode(datagram).seq == 1
        assert faulty.datagrams_received == 2
        assert faulty.recv_dropped == 1
        assert faulty.recv_loss_rate == 0.5
        assert faulty.datagrams_dropped == 0  # send ledger untouched

    def test_plan_duplicate_replays_datagram(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="duplicate", kinds=("data",), direction="recv",
                      indices=(0,), count=1),
        )
        faulty.settimeout(2.0)
        right.sendto(_datagram(0), left.getsockname())
        first, _ = faulty.recvfrom(65536)
        second, _ = faulty.recvfrom(65536)
        assert first == second

    def test_plan_delay_defers_delivery(self, pair):
        import time

        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="delay", kinds=("data",), direction="recv",
                      indices=(0,), delay_s=0.05),
        )
        faulty.settimeout(2.0)
        right.sendto(_datagram(0), left.getsockname())
        start = time.monotonic()
        datagram, _ = faulty.recvfrom(65536)
        assert decode(datagram).seq == 0
        assert time.monotonic() - start >= 0.04

    def test_reorder_hold_flushed_at_deadline(self, pair):
        left, right = pair
        faulty = _wrap(
            left,
            FaultRule(action="reorder", kinds=("data",), direction="recv",
                      indices=(0,), depth=10),
        )
        faulty.settimeout(0.2)
        right.sendto(_datagram(0), left.getsockname())
        # Nothing overtakes it, but the deadline flush returns it anyway:
        # bounded plans must never turn into data loss.
        datagram, _ = faulty.recvfrom(65536)
        assert decode(datagram).seq == 0

    def test_timeout_still_raised_when_nothing_held(self, pair):
        left, _ = pair
        faulty = _wrap(
            left, FaultRule(action="drop", kinds=("data",), direction="recv")
        )
        faulty.settimeout(0.05)
        with pytest.raises(socket.timeout):
            faulty.recvfrom(65536)


class TestLossySocketCompat:
    def test_context_manager_closes(self):
        raw = _udp_socket()
        with FaultySocket(raw) as faulty:
            assert faulty.getsockname()[0] == "127.0.0.1"
        with pytest.raises(OSError):
            raw.getsockname()
