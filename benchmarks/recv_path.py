"""What the pump's receive half costs in-process, per datagram, sockets removed, in each
checkout's own code: a client's reads of one stream's data datagrams, cut GRO-style from
one buffer of back-to-back datagrams that the checkout's own server drew and encoded, go
through what ``_PumpClient.on_readable`` does with a ring once the verdict is in, split in
four parts:

- ``decode``: the ring's datagrams to what the machine takes (``decode_data_run``, or
  ``decode`` per datagram where a checkout has no runs);
- ``machine``: ``PullMachine.on_run`` (or ``on_frames``) less the body draw: the
  receiver's tracking and replies, the in-order join and compare, the completion check;
- ``verify_draw``: the client's own copy of the body, drawn to compare against
  (``BodyStream.read``);
- ``reply_staging``: ``send_frame`` per reply and the ring's ``flush`` into a socket that
  discards what it is given.

Two cells, 32 datagrams a ring: a blast of 8 x 256 KiB pulls (``udp_bulk_blast``'s cell,
where a round-robin drain sends 16 packets a stream, so a ring is two reads of 16), and
one 4 MiB sliding-window pull, window 32 (a ring is one window).  One JSON line per
checkout, µs per datagram, the split of the best of ``--rounds`` (the quiet reading:
what the code costs, not what the box was doing):

    python3 benchmarks/recv_path.py PARENT .
"""
import argparse
import json
import os
import subprocess
import sys
import time

RING = 32


class Discard:
    """A socket that takes every send and keeps nothing."""

    def setblocking(self, flag):
        pass

    def setsockopt(self, level, option, value):
        pass

    def fileno(self):
        return -1

    def sendto(self, payload, address):
        return len(payload)

    def sendmsg(self, buffers, ancdata, flags, address):
        return 0


def measure(checkout, rounds):
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    from repro.core.frames import ControlFrame
    from repro.core.wire import HEADER2_BYTES, decode, encode, encode_run_into
    from repro.service.engine import ServiceConfig, ServiceCore
    from repro.service.iobatch import DatagramBatchIO
    from repro.service.pullclient import PullMachine
    from repro.service.udpservice import SEND_BATCH

    runs = hasattr(PullMachine, "on_run")       # the parent decodes a frame a datagram
    if runs:
        from repro.core.wire import decode_data_run
    clock = time.perf_counter

    def request(stream, size):
        body = {"op": "pull", "size": size, "stream": stream}
        return ControlFrame(transfer_id=0, request_id=stream,
                            body=json.dumps(body, sort_keys=True).encode())

    def served(config, sizes):
        """Each stream's datagrams as the server sends them, cut from one
        buffer, and the verdicts it gave."""
        core = ServiceCore(config)
        verdicts, packets = {}, {stream: [] for stream in range(1, len(sizes) + 1)}
        for stream, size in enumerate(sizes, 1):
            ((verdict, _client),) = core.on_frame(request(stream, size), 0.0,
                                                  client=("10.0.0.%d" % stream, 9))
            verdicts[stream] = encode(verdict)
        while not core.idle:
            for _client, stream, total, seqs, payloads, wants in core.drain_sends(
                    0.0, SEND_BATCH):
                packets[stream] += zip(seqs, payloads, wants)
                core.on_acks(stream, list(seqs), 0.0,
                             client=("10.0.0.%d" % stream, 9))
        datagrams = {}
        for stream, sent in packets.items():
            seqs, payloads, wants = zip(*sent)
            total = len(seqs)
            buf = bytearray(sum(len(p) for p in payloads) + HEADER2_BYTES * total)
            encode_run_into(buf, 0, stream, total, seqs, payloads, wants)
            view, offset, cut = memoryview(bytes(buf)), 0, []
            for payload in payloads:
                end = offset + HEADER2_BYTES + len(payload)
                cut.append(view[offset:end])
                offset = end
            datagrams[stream] = cut
        return verdicts, datagrams

    def pull_one(protocol, stream, size, verdict, datagrams, spent):
        pull = PullMachine(stream, size, protocol, "selective", pull_timeout_s=0.25,
                           pull_retries=3, recv_timeout_s=2.0, linger_s=0.1)
        pull.start(0.0)
        pull.on_frames([decode(verdict)], 0.0)
        draw = pull._body.read

        def timed_read(n):
            began = clock()
            block = draw(n)
            spent["verify_draw"] += clock() - began
            return block
        pull._body.read = timed_read
        io = DatagramBatchIO(Discard())
        for start in range(0, len(datagrams), RING):
            ring = datagrams[start:start + RING]
            t0 = clock()
            if runs:
                packets = decode_data_run(ring, stream)
            else:
                frames = [decode(view) for view in ring]
            t1 = clock()
            drawn = spent["verify_draw"]
            replies = (pull.on_run(*packets, 0.0) if runs
                       else pull.on_frames(frames, 0.0)) or []
            t2 = clock()
            for reply in replies:
                io.send_frame(reply, ("127.0.0.1", 9))
            io.flush()
            t3 = clock()
            spent["decode"] += t1 - t0
            spent["machine"] += t2 - t1 - (spent["verify_draw"] - drawn)
            spent["reply_staging"] += t3 - t2
        assert pull.result.ok, pull.result
        return len(datagrams)

    cells = {
        "blast_8x256k": ("blast", ServiceConfig(policy="rr", max_active=8, seed=7),
                         [256 * 1024] * 8),
        "sliding_w32_4m": ("sliding", ServiceConfig(protocol="sliding", window=32,
                                                    max_active=1, seed=7),
                           [4 * 1024 * 1024]),
    }
    result = {"checkout": checkout, "runs": runs, "rounds": rounds}
    for name, (protocol, config, sizes) in cells.items():
        verdicts, datagrams = served(config, sizes)
        best = None
        for _ in range(rounds):
            spent = dict.fromkeys(("decode", "machine", "verify_draw", "reply_staging"), 0.0)
            count = sum(pull_one(protocol, stream, size, verdicts[stream],
                                 datagrams[stream], spent)
                        for stream, size in enumerate(sizes, 1))
            split = {key: value / count * 1e6 for key, value in spent.items()}
            split["total"] = sum(split.values())
            if best is None or split["total"] < best["total"]:
                best = split
        result[name] = {key: round(value, 3) for key, value in best.items()}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:    # a child: each checkout imports its own repro
        print(json.dumps(measure(args.checkouts[0], args.rounds)))
        return
    for checkout in args.checkouts:
        print(subprocess.run(
            [sys.executable, __file__, checkout, "--one", "--rounds", str(args.rounds)],
            capture_output=True, text=True, check=True).stdout.strip(), flush=True)


if __name__ == "__main__":
    main()
