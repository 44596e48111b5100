"""One blocking UDP transfer endpoint for all three protocols.

:class:`UdpTransfer` replaces the five hand-written socket engines this
package used to carry (stop-and-wait, sliding-window and blast senders,
per-packet-ack and blast receivers).  It holds no protocol logic: the
substrate-free machines of :mod:`repro.service.machines` decide when to
reply and what to resend, and the driver loops on
:class:`~repro.udpnet.endpoints.UdpEndpoint` carry their frames over
the socket.  ``protocol`` takes the machines' names — ``"blast"``,
``"sliding"``, ``"saw"`` — and ``strategy`` the blast retransmission
menu (``full_no_nak``, ``full_nak``, ``gobackn``, ``selective``); the
receiver must be told the same pair as the sender, because they fix
which replies it owes.
"""

from __future__ import annotations

import time
from typing import Tuple

from ..core.frames import FrameKind
from ..service.machines import make_sender_machine, receiver_for
from .endpoints import UdpEndpoint, UdpTransferOutcome

__all__ = ["UdpTransfer"]


class UdpTransfer(UdpEndpoint):
    """Sends or receives one transfer at a time over its socket."""

    def send(
        self,
        data: bytes,
        dst: Tuple[str, int],
        protocol: str = "blast",
        strategy: str = "gobackn",
        timeout_s: float = 0.1,
        max_rounds: int = 200,
        transfer_id: int = 1,
    ) -> UdpTransferOutcome:
        """Transfer ``data`` to ``dst``; blocks until acknowledged.

        ``timeout_s`` is the retransmission timer (per round for blast,
        per packet for the window protocols) and ``max_rounds`` the cap
        on blast rounds or per-packet attempts.  The sliding window
        never closes, as the paper assumes: it spans the whole transfer.
        """
        machine = make_sender_machine(
            protocol, transfer_id, data, self.packet_bytes, timeout_s,
            max_rounds=max_rounds, strategy=strategy,
            window=len(data) // self.packet_bytes + 1,  # >= packet count
        )
        start = time.monotonic()
        timeouts = self._drive_sender(machine, dst)
        sent = machine.outcome()
        return UdpTransferOutcome(
            ok=sent.ok,
            elapsed_s=time.monotonic() - start,
            payload_bytes=len(data),
            n_packets=sent.packets,
            data_frames_sent=sent.data_frames_sent,
            retransmissions=sent.retransmits,
            timeouts=timeouts,
            rounds=sent.rounds,
            error=sent.error,
        )

    def serve_one(
        self,
        protocol: str = "blast",
        strategy: str = "gobackn",
        first_timeout_s: float = 10.0,
        idle_timeout_s: float = 2.0,
        linger_s: float = 0.1,
    ) -> UdpTransferOutcome:
        """Receive one complete transfer; returns the reassembled data.

        The first data frame to arrive picks the transfer.  After
        completion the receiver lingers briefly, re-answering duplicates
        so the sender's final exchange can complete.
        """
        outcome = UdpTransferOutcome(
            ok=False, elapsed_s=0.0, payload_bytes=0, n_packets=0,
            error="timed out waiting for data",
        )
        while True:
            first = self._recv_frame(first_timeout_s)
            if first is None:
                return outcome
            if first[0].kind is FrameKind.DATA:
                break
        start = time.monotonic()
        machine = receiver_for(protocol, first[0].stream_id, strategy)
        if not self._drive_receiver(machine, idle_timeout_s, linger_s,
                                    first=first):
            return outcome
        data = machine.data
        return UdpTransferOutcome(
            ok=True,
            elapsed_s=time.monotonic() - start,
            payload_bytes=len(data),
            n_packets=machine.tracker.total,
            data=data,
            reply_frames_sent=machine.replies_sent,
            duplicates=machine.duplicates,
        )
