"""What one kernel crossing costs on this box, per datagram: a burst of 1 KiB-packet
datagrams sent one ``sendto`` each against one ``sendmsg`` with ``UDP_SEGMENT``, read one
``recvfrom_into`` each against one coalesced ``recvmsg_into`` (``UDP_GRO``); then the same
burst through a checkout's own ``DatagramBatchIO`` (stage, flush, ``recv_batch``), so the
parent and the change can be set side by side.  One JSON line per measurement, best of
``--rounds`` (the quiet reading: what the calls cost, not what the box was doing):

    python3 benchmarks/kernel_crossings.py                 # the syscalls alone
    python3 benchmarks/kernel_crossings.py PARENT .        # + each checkout's batch layer
"""
import argparse
import json
import os
import socket
import struct
import subprocess
import sys
import time

UDP_SEGMENT, UDP_GRO = 103, 104     # <linux/udp.h>
DATAGRAM_BYTES = 1050               # a 1 KiB packet behind a stream header
RCVBUF = 4 << 20


def loopback_pair(coalesce):
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF)
    receiver.bind(("127.0.0.1", 0))
    receiver.setblocking(False)
    if coalesce:
        receiver.setsockopt(socket.SOL_UDP, UDP_GRO, 1)
    return sender, receiver


def best_us_per_datagram(prepare, action, datagrams, rounds):
    """Best of ``rounds`` timings of ``action()``; ``prepare()`` runs untimed before each."""
    best = float("inf")
    for _ in range(rounds):
        prepare()
        began = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - began)
    return round(best / datagrams * 1e6, 3)


def syscalls(burst, rounds):
    """µs per datagram of the four calls, ``burst`` datagrams at a time."""
    arena = memoryview(bytearray(os.urandom(burst * DATAGRAM_BYTES)))
    pieces = [arena[at:at + DATAGRAM_BYTES] for at in range(0, len(arena), DATAGRAM_BYTES)]
    control = [(socket.SOL_UDP, UDP_SEGMENT, struct.pack("H", DATAGRAM_BYTES))]
    slot, big = bytearray(2048), bytearray(65536)
    out = {"burst": burst, "datagram_bytes": DATAGRAM_BYTES}

    def drain_each(receiver):
        try:
            while True:
                receiver.recvfrom_into(slot)
        except BlockingIOError:
            pass

    def drain_coalesced(receiver):
        try:
            while True:
                receiver.recvmsg_into((big,), socket.CMSG_SPACE(4))
        except BlockingIOError:
            pass

    sender, receiver = loopback_pair(coalesce=False)
    to = receiver.getsockname()
    with sender, receiver:
        def send_each():
            for piece in pieces:
                sender.sendto(piece, to)
        out["sendto_each"] = best_us_per_datagram(
            lambda: drain_each(receiver), send_each, burst, rounds)
        out["recvfrom_into_each"] = best_us_per_datagram(
            send_each, lambda: drain_each(receiver), burst, rounds)
        try:
            sender.sendmsg(pieces, control, 0, to)
        except OSError as error:
            out["segmented"] = f"refused: {error}"
            return out
        drain_each(receiver)
        out["sendmsg_segmented"] = best_us_per_datagram(
            lambda: drain_each(receiver),
            lambda: sender.sendmsg(pieces, control, 0, to), burst, rounds)
    sender, receiver = loopback_pair(coalesce=True)
    to = receiver.getsockname()
    with sender, receiver:
        sender.sendmsg(pieces, control, 0, to)
        got, ancillary, _flags, _from = receiver.recvmsg_into((big,), socket.CMSG_SPACE(4))
        out["coalesced_read"] = {"bytes": got, "segment": struct.unpack("i", ancillary[0][2])[0]
                                 if ancillary else None}
        drain_coalesced(receiver)
        out["recvmsg_into_coalesced"] = best_us_per_datagram(
            lambda: sender.sendmsg(pieces, control, 0, to),
            lambda: drain_coalesced(receiver), burst, rounds)
    return out


def batch_layer(checkout, frames, destinations, rounds):
    """µs per datagram through ``checkout``'s DatagramBatchIO: ``frames`` data frames dealt
    over ``destinations`` sockets the way the round-robin server deals them."""
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    from repro.core.frames import DataFrame
    from repro.service.iobatch import DatagramBatchIO

    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receivers = []
    for _ in range(destinations):
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        receiver.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF)
        receiver.bind(("127.0.0.1", 0))
        receivers.append(receiver)
    out_io = DatagramBatchIO(sender)
    in_ios = [DatagramBatchIO(receiver, ring_slots=2, slot_bytes=8192)
              for receiver in receivers]
    staged = [(DataFrame(transfer_id=1, seq=seq, total=frames, payload=bytes(1024),
                         stream_id=1 + seq % destinations),
               receivers[seq % destinations].getsockname()) for seq in range(frames)]
    flush = getattr(out_io, "flush", lambda: None)     # the parent sends as it goes
    sent, seen = [], []

    def send():
        for frame, to in staged:
            out_io.send_frame(frame, to)
        flush()
        sent.append(frames)

    def receive():
        count = 0
        for in_io in in_ios:
            while True:
                batch = in_io.recv_batch()
                if not batch:
                    break
                count += len(batch)
        seen.append(count)

    result = {
        "checkout": checkout, "frames": frames, "destinations": destinations,
        "send_frame_and_flush": best_us_per_datagram(receive, send, frames, rounds),
        "recv_batch": best_us_per_datagram(send, receive, frames, rounds),
    }
    receive()
    assert sum(seen) == sum(sent), (sum(seen), sum(sent))   # nothing lost on the way
    for sock in [sender] + receivers:
        sock.close()
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*")
    parser.add_argument("--burst", type=int, default=60)
    parser.add_argument("--frames", type=int, default=128)
    parser.add_argument("--destinations", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=2000)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:    # a child: each checkout imports its own repro
        print(json.dumps(batch_layer(args.checkouts[0], args.frames, args.destinations,
                                     args.rounds)))
        return
    print(json.dumps(syscalls(args.burst, args.rounds)), flush=True)
    for checkout in args.checkouts:
        print(subprocess.run(
            [sys.executable, __file__, checkout, "--one", "--frames", str(args.frames),
             "--destinations", str(args.destinations), "--rounds", str(args.rounds)],
            capture_output=True, text=True, check=True).stdout.strip(), flush=True)


if __name__ == "__main__":
    main()
