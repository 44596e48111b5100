"""What the ack clock costs in-process, per packet, at both ends of a sliding-window pull
(window 32, 1 KiB packets), sockets removed, in each checkout's own code: decoding an ACK
datagram for the server; the server's core and sender machine taking the ACK; the serve
loop taking a ring of ACK datagrams whole (decode, core, machine); and the pump's pull
machine taking a data frame (receiver, ACK built, verification, completion check).  One
JSON line per checkout, µs per packet, best of ``--rounds`` whole pulls (the quiet
reading: what the code costs, not what the box was doing):

    python3 benchmarks/ack_clock.py PARENT .
"""
import argparse
import json
import os
import subprocess
import sys
import time


def measure(checkout, packets, rounds):
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    from repro.core.frames import DataFrame
    from repro.core.wire import decode, encode
    from repro.service.engine import ServiceConfig, ServiceCore
    from repro.service.pullclient import PullMachine
    from repro.service.udpservice import SEND_BATCH

    rings = hasattr(ServiceCore, "on_acks")     # the parent takes one frame a call

    def drained(core):
        """One drain's data frames as the pump decodes them (a checkout that
        drains one run per stream hands over packets, not frames)."""
        out = core.drain_sends(0.0, SEND_BATCH)
        if out and len(out[0]) == 6:
            out = [(DataFrame(stream, seq, total, payload, reply, stream_id=stream), client)
                   for client, stream, total, seqs, payloads, wants in out
                   for seq, payload, reply in zip(seqs, payloads, wants)]
        return [decode(encode(frame)) for frame, _ in out]
    if rings:
        from repro.service.udpservice import deliver_ring
    clock = time.perf_counter
    best = {}

    def admitted():
        core = ServiceCore(ServiceConfig(protocol="sliding", window=32, max_active=1,
                                         seed=7))
        pull = PullMachine(1, packets * 1024, "sliding", "selective", pull_timeout_s=0.25,
                           pull_retries=3, recv_timeout_s=2.0, linger_s=0.1)
        (request,) = pull.start(0.0)
        ((verdict, _client),) = core.on_frame(request, 0.0, client="c")
        pull.on_frame(decode(encode(verdict)), 0.0)
        return core, pull

    for _ in range(rounds):
        spent = dict.fromkeys(("ack_decode", "ack_core_and_machine", "ack_ring_whole",
                               "pump_machine_per_data_frame"), 0.0)
        for column in ("parts", "whole"):
            core, pull = admitted()
            while not core.idle:
                frames = drained(core)
                began = clock()
                if rings:
                    replies = pull.on_frames(frames, 0.0) or []
                else:
                    replies = []
                    for frame in frames:
                        if pull.wants(frame):
                            replies += pull.on_frame(frame, 0.0)
                if column == "parts":
                    spent["pump_machine_per_data_frame"] += clock() - began
                views = [memoryview(encode(reply)) for reply in replies]
                if column == "whole":
                    began = clock()
                    if rings:
                        deliver_ring(core, None, [(view, "c") for view in views], 0.0)
                    else:
                        for view in views:
                            core.on_frame(decode(view), 0.0, client="c")
                    spent["ack_ring_whole"] += clock() - began
                    continue
                began = clock()
                acks = [decode(view, True) for view in views] if rings else \
                    [decode(view) for view in views]
                spent["ack_decode"] += clock() - began
                began = clock()
                if rings:
                    core.on_acks(1, [seq for _stream, seq in acks], 0.0, client="c")
                else:
                    for ack in acks:
                        core.on_frame(ack, 0.0, client="c")
                spent["ack_core_and_machine"] += clock() - began
            assert core.finished[1].ok and core.finished[1].retransmits == 0
        for key, seconds in spent.items():
            best[key] = min(best.get(key, float("inf")), seconds / packets * 1e6)
    return {"checkout": checkout, "packets": packets, "rounds": rounds,
            **{key: round(value, 3) for key, value in best.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+")
    parser.add_argument("--packets", type=int, default=1024)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:    # a child: each checkout imports its own repro
        print(json.dumps(measure(args.checkouts[0], args.packets, args.rounds)))
        return
    for checkout in args.checkouts:
        print(subprocess.run(
            [sys.executable, __file__, checkout, "--one", "--packets", str(args.packets),
             "--rounds", str(args.rounds)],
            capture_output=True, text=True, check=True).stdout.strip(), flush=True)


if __name__ == "__main__":
    main()
