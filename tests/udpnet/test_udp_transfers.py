"""End-to-end tests of the UDP transport over loopback.

Each test runs the receiver in a thread and the sender in the test
thread.  Timeouts are generous to keep CI machines happy; correctness
(intact delivery under loss) is the assertion, not speed.
"""

import gc
import socket
import sys
import threading
import warnings

import pytest

from repro.faults import FaultySocket, builtin_plan
from repro.simnet import BernoulliErrors, DeterministicDrops
from repro.udpnet import UdpTransfer

DATA = bytes(range(256)) * 32  # 8 KB -> 8 packets
SAW = {"protocol": "saw"}
SLIDING = {"protocol": "sliding"}


def run_pair(receiver, serve_kwargs, send_fn):
    """Drive receiver.serve_one in a thread while send_fn runs here."""
    box = {}

    def serve():
        box["received"] = receiver.serve_one(**serve_kwargs)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    box["sent"] = send_fn()
    thread.join(timeout=30)
    assert not thread.is_alive(), "receiver thread hung"
    return box["sent"], box["received"]


class TestStopAndWaitUdp:
    def test_lossless_transfer(self):
        with UdpTransfer() as receiver, UdpTransfer() as sender:
            sent, received = run_pair(
                receiver, SAW,
                lambda: sender.send(DATA, receiver.address, **SAW),
            )
        assert sent.ok
        assert received.ok
        assert received.data == DATA
        assert sent.data_frames_sent == 8

    def test_transfer_with_injected_loss(self):
        with UdpTransfer() as receiver, UdpTransfer(
            error_model=BernoulliErrors(0.2, seed=31)
        ) as sender:
            sent, received = run_pair(
                receiver, SAW,
                lambda: sender.send(DATA, receiver.address, **SAW),
            )
        assert sent.ok
        assert received.data == DATA
        assert sent.retransmissions > 0


class TestSlidingWindowUdp:
    def test_lossless_transfer(self):
        with UdpTransfer() as receiver, UdpTransfer() as sender:
            sent, received = run_pair(
                receiver, SLIDING,
                lambda: sender.send(DATA, receiver.address, **SLIDING),
            )
        assert sent.ok
        assert received.data == DATA
        assert sent.rounds == 1

    def test_selective_repeat_under_loss(self):
        with UdpTransfer() as receiver, UdpTransfer(
            error_model=BernoulliErrors(0.25, seed=32)
        ) as sender:
            sent, received = run_pair(
                receiver, SLIDING,
                lambda: sender.send(DATA, receiver.address, **SLIDING),
            )
        assert sent.ok
        assert received.data == DATA
        assert sent.rounds > 1


class TestBlastUdp:
    @pytest.mark.parametrize("strategy", ["full_nak", "gobackn", "selective"])
    def test_lossless_transfer(self, strategy):
        with UdpTransfer() as receiver, UdpTransfer() as sender:
            sent, received = run_pair(
                receiver,
                {},
                lambda: sender.send(DATA, receiver.address, strategy=strategy),
            )
        assert sent.ok
        assert received.data == DATA
        assert sent.rounds == 1
        assert sent.data_frames_sent == 8
        assert received.reply_frames_sent == 1  # a single ack for the blast

    def test_full_no_nak_with_silent_receiver(self):
        with UdpTransfer() as receiver, UdpTransfer(
            error_model=DeterministicDrops([2])
        ) as sender:
            sent, received = run_pair(
                receiver,
                {"strategy": "full_no_nak"},
                lambda: sender.send(
                    DATA, receiver.address, strategy="full_no_nak", timeout_s=0.1
                ),
            )
        assert sent.ok
        assert received.data == DATA
        assert sent.timeouts >= 1        # silence forced the timer
        assert sent.data_frames_sent >= 16  # full retransmission

    def test_gobackn_resends_tail_only(self):
        with UdpTransfer() as receiver, UdpTransfer(
            error_model=DeterministicDrops([5])  # lose data packet seq 5
        ) as sender:
            sent, received = run_pair(
                receiver,
                {},
                lambda: sender.send(DATA, receiver.address, strategy="gobackn"),
            )
        assert sent.ok
        assert received.data == DATA
        assert sent.rounds == 2
        assert sent.data_frames_sent == 8 + 3  # seqs 5, 6, 7

    def test_selective_resends_exactly_missing(self):
        with UdpTransfer() as receiver, UdpTransfer(
            error_model=DeterministicDrops([1, 5])
        ) as sender:
            sent, received = run_pair(
                receiver,
                {},
                lambda: sender.send(DATA, receiver.address, strategy="selective"),
            )
        assert sent.ok
        assert received.data == DATA
        assert sent.data_frames_sent == 8 + 2

    def test_heavy_loss_still_delivers(self):
        with UdpTransfer() as receiver, UdpTransfer(
            error_model=BernoulliErrors(0.25, seed=33)
        ) as sender:
            sent, received = run_pair(
                receiver,
                {},
                lambda: sender.send(DATA, receiver.address, strategy="selective"),
            )
        assert sent.ok
        assert received.data == DATA

    def test_large_transfer(self):
        big = bytes(256) * 1024  # 256 KB -> 256 packets
        with UdpTransfer() as receiver, UdpTransfer() as sender:
            sent, received = run_pair(
                receiver,
                {},
                lambda: sender.send(big, receiver.address, strategy="gobackn"),
            )
        assert sent.ok
        assert received.data == big
        assert received.n_packets == 256


class TestOutcomeAccounting:
    def test_throughput_positive(self):
        with UdpTransfer() as receiver, UdpTransfer() as sender:
            sent, _ = run_pair(
                receiver, {}, lambda: sender.send(DATA, receiver.address)
            )
        assert sent.throughput_bps > 0

    def test_receiver_first_timeout(self):
        with UdpTransfer() as receiver:
            outcome = receiver.serve_one(first_timeout_s=0.05)
        assert not outcome.ok
        assert "timed out" in outcome.error

    def test_lossy_socket_counters(self):
        sender = UdpTransfer(error_model=DeterministicDrops([0]))
        try:
            sender.sock.sendto(b"x", ("127.0.0.1", 9))  # dropped
            assert sender.sock.datagrams_dropped == 1
            assert sender.sock.loss_rate == 1.0
        finally:
            sender.close()


class TestEndpointSocket:
    """Fault-free endpoints pay for no wrapper around the kernel socket."""

    def test_no_faults_means_the_kernel_socket(self):
        with UdpTransfer() as endpoint:
            assert type(endpoint.sock) is socket.socket
            assert endpoint.address == endpoint.sock.getsockname()

    def test_fault_free_blast_crosses_the_kernel_once_per_burst(self):
        body = bytes(256 * 1024)
        with UdpTransfer() as receiver, UdpTransfer() as sender:
            sent, received = run_pair(
                receiver, {}, lambda: sender.send(body, receiver.address))
            stats = sender.io.stats()
        assert sent.ok and received.data == body
        assert stats["datagrams_out"] == sent.data_frames_sent >= 256
        if stats["segmented"] is False:
            pytest.skip("kernel refused UDP_SEGMENT")
        assert stats["segmented"] is True
        assert stats["send_calls"] < stats["datagrams_out"] // 8

    def test_error_model_or_plan_wraps_it(self):
        with UdpTransfer(error_model=BernoulliErrors(0.1, seed=1)) as lossy:
            assert isinstance(lossy.sock, FaultySocket)
        with UdpTransfer(fault_plan=builtin_plan("dup-burst")) as planned:
            assert isinstance(planned.sock, FaultySocket)
            assert planned.sock.plan is not None

    def test_a_failed_bind_leaks_no_socket(self, monkeypatch):
        # A restarted cluster worker re-binds its old port; while that is
        # still taken, each attempt must close the socket it opened.
        # The unclosed socket's ResourceWarning is raised in a finaliser,
        # so it reaches the unraisable hook, not this frame.
        leaked = []
        monkeypatch.setattr(sys, "unraisablehook", leaked.append)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
            taken.bind(("127.0.0.1", 0))
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                with pytest.raises(OSError):
                    UdpTransfer(bind=taken.getsockname())
                gc.collect()
        assert [hook.exc_type for hook in leaked] == []
