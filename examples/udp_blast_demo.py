#!/usr/bin/env python3
"""The protocols on REAL sockets: blast vs stop-and-wait over UDP loopback.

Same frame format and the same protocol machines the transfer service
runs under the simulator — but actual datagrams through the kernel's
UDP stack, with loss injected at the sender.  Absolute numbers are
Python-bound; the *shape* (blast needs one reply, stop-and-wait needs one
per packet, selective retransmission wastes the fewest frames) is the
point.

Run:  python examples/udp_blast_demo.py
"""

import threading

from repro.simnet import BernoulliErrors
from repro.udpnet import UdpTransfer

DATA = bytes(i % 251 for i in range(64 * 1024))  # 64 KB of patterned bytes


def transfer(error_model=None, **choice):
    """One transfer; ``choice`` (protocol/strategy) goes to both ends."""
    box = {}
    with UdpTransfer() as rx, UdpTransfer(error_model=error_model) as tx:
        thread = threading.Thread(
            target=lambda: box.update(received=rx.serve_one(**choice)),
            daemon=True,
        )
        thread.start()
        sent = tx.send(DATA, rx.address, **choice)
        thread.join(timeout=60)
    return sent, box["received"]


def show(label, sent, received):
    intact = "intact" if received.data == DATA else "CORRUPT"
    print(f"  {label:<28s} {sent.elapsed_s * 1e3:7.1f} ms  "
          f"{sent.data_frames_sent:4d} data frames  "
          f"{received.reply_frames_sent:3d} replies  "
          f"{sent.retransmissions:3d} retx  [{intact}]")


def main() -> None:
    print(f"Transferring {len(DATA) // 1024} KB over UDP loopback "
          f"({len(DATA) // 1024} packets of 1 KB)\n")

    print("Lossless:")
    show("stop-and-wait", *transfer(protocol="saw"))
    show("blast (gobackn)", *transfer(protocol="blast", strategy="gobackn"))

    print("\nWith 5% injected datagram loss:")
    for strategy in ("full_nak", "gobackn", "selective"):
        loss = BernoulliErrors(0.05, seed=hash(strategy) % 2**31)
        show(f"blast ({strategy})",
             *transfer(loss, protocol="blast", strategy=strategy))
    show("stop-and-wait",
         *transfer(BernoulliErrors(0.05, seed=99), protocol="saw"))

    print("\nNote how selective retransmission resends almost exactly the "
          "lost frames,\ngo-back-n a little more, and full retransmission "
          "entire 64-packet rounds.")


if __name__ == "__main__":
    main()
