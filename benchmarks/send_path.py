"""What the server's send half costs in-process, per datagram, sockets removed, in each
checkout's own code: ``drain_sends``, staging every granted packet on the batch layer
(``send_run``, or ``send_frame`` where a checkout has no runs) and ``flush`` into a socket
that discards what it is given.  Two cells: a blast of 8 x 256 KiB pulls under
round-robin (``udp_bulk_blast``'s cell) and one 4 MiB sliding-window pull, window 32,
whose ACKs are fed back untimed between turns.  One JSON line per checkout, µs per
datagram, best of ``--rounds`` (the quiet reading: what the code costs, not what the box
was doing):

    python3 benchmarks/send_path.py PARENT .
"""
import argparse
import json
import os
import subprocess
import sys
import time


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
    from repro.service.engine import ServiceConfig, ServiceCore
    from repro.service.iobatch import DatagramBatchIO
    from repro.service.udpservice import SEND_BATCH

    runs = hasattr(DatagramBatchIO, "send_run")     # the parent stages a frame a call
    clock = time.perf_counter

    def admitted(config, sizes):
        core = ServiceCore(config)
        for stream, size in enumerate(sizes, 1):
            body = json.dumps({"op": "pull", "size": size, "stream": stream},
                              sort_keys=True).encode()
            core.on_frame(ControlFrame(transfer_id=0, request_id=stream, body=body),
                          0.0, client=("10.0.0.%d" % stream, 9))
        return core

    def turn(core, io):
        """One send half; returns the data frames it sent."""
        drained = core.drain_sends(0.0, SEND_BATCH)
        sent = 0
        if runs:
            for run in drained:
                io.send_run(*run)
                sent += len(run[3])
        else:
            for frame, address in drained:
                io.send_frame(frame, address)
            sent = len(drained)
        io.flush()
        return sent, drained

    def blast():
        core = admitted(ServiceConfig(policy="rr", max_active=8, seed=7), [256 * 1024] * 8)
        io = DatagramBatchIO(Discard())
        spent = sent = 0
        while True:
            began = clock()
            count, _ = turn(core, io)
            spent += clock() - began
            if not count:
                return spent / sent * 1e6
            sent += count

    def sliding():
        core = admitted(ServiceConfig(protocol="sliding", window=32, max_active=1, seed=7),
                        [4 * 1024 * 1024])
        io = DatagramBatchIO(Discard())
        spent = sent = 0
        while not core.idle:
            began = clock()
            count, drained = turn(core, io)
            spent += clock() - began
            sent += count
            seqs = ([seq for run in drained for seq in run[3]] if runs
                    else [frame.seq for frame, _ in drained])
            core.on_acks(1, seqs, 0.0, client=("10.0.0.1", 9))
        return spent / sent * 1e6

    best = {"blast_8x256k_rr": float("inf"), "sliding_w32_4m": float("inf")}
    for _ in range(rounds):
        best["blast_8x256k_rr"] = min(best["blast_8x256k_rr"], blast())
        best["sliding_w32_4m"] = min(best["sliding_w32_4m"], sliding())
    return {"checkout": checkout, "runs": runs, "rounds": rounds,
            **{key: round(value, 3) for key, value in best.items()}}


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
