#!/usr/bin/env python3
"""The protocols on REAL sockets: blast vs stop-and-wait over UDP loopback.

Same frame format and the same protocol machines the transfer service
runs under the simulator — but actual datagrams through the kernel's
UDP stack, with loss injected at the server's socket.  Each transfer is
one pull: a small request, then the 64 KB body.  Absolute numbers are
Python-bound; the *shape* (blast needs one reply, stop-and-wait needs
one per packet, selective retransmission wastes the fewest frames) is
the point.

For the same transfer between two processes, start a server with
``python -m repro serve --once 1`` and pull from it with
``python -m repro loadgen --mode udp --clients 1 --size 64K --server HOST:PORT``.

Run:  python examples/udp_blast_demo.py
"""

import json

from repro.faults import FaultPlan, FaultRule
from repro.service import ServiceConfig, run_udp_loadgen

SIZE = 64 * 1024  # 64 packets of 1 KB


def loss(seed):
    """Lose 5% of the data datagrams the server sends."""
    return FaultPlan(name="loss-5%", seed=seed, rules=(FaultRule(
        action="drop", kinds=("data",), direction="send", probability=0.05),))


def show(label, fault_plan=None, **choice):
    config = ServiceConfig(window=SIZE // 1024 + 1, timeout_s=0.1,
                           max_rounds=200, **choice)
    result = run_udp_loadgen(1, config=config, size_bytes=SIZE,
                             fault_plan=fault_plan)
    pull = result.pulls[1]
    report = json.loads(result.report_json)
    sent = report["transfers"][0]
    replies = report["io"]["datagrams_in"] - 1  # all but the pull request
    intact = "intact" if pull.ok else "CORRUPT"
    print(f"  {label:<28s} {pull.elapsed_s * 1e3:7.1f} ms  "
          f"{sent['data_frames']:4d} data frames  "
          f"{replies:3d} replies  "
          f"{sent['retransmits']:3d} retx  [{intact}]")


def main() -> None:
    print(f"Transferring {SIZE // 1024} KB over UDP loopback "
          f"({SIZE // 1024} packets of 1 KB)\n")

    print("Lossless:")
    show("stop-and-wait", protocol="saw")
    show("blast (gobackn)", protocol="blast", strategy="gobackn")

    print("\nWith 5% injected datagram loss:")
    for seed, strategy in enumerate(("full_nak", "gobackn", "selective"), 1):
        show(f"blast ({strategy})", loss(seed), protocol="blast",
             strategy=strategy)
    show("stop-and-wait", loss(99), protocol="saw")

    print("\nNote how selective retransmission resends almost exactly the "
          "lost frames,\ngo-back-n a little more, and full retransmission "
          "entire 64-packet rounds.")


if __name__ == "__main__":
    main()
