"""What layerbench's contract line leaves out of a UDP run: the server report's
retransmit count and both hosts' utilisation, beside goodput (quiet decile and median).

Runs layerbench's own cell recipe (its ``repro serve`` flags, its ``UdpClientPump``
arguments, its pinning) from each named checkout in turn, one JSON line per run:

    python3 benchmarks/matched_speeds.py PARENT . .:default-buffer --runs 7
    python3 benchmarks/matched_speeds.py PARENT . --workload one_4mib_blast --cells 4

``CHECKOUT:default-buffer`` leaves ``SO_RCVBUF`` alone and advertises nothing (the
faster sender without the sized buffer); ``CHECKOUT:credit=N`` makes room for N packets
and advertises N, whatever the body.  Both need a checkout that has
``clientpump._receive_credit``.
``one_4mib_blast`` is not a layerbench workload: one 4 MiB blast pull per cell, the
case docs/performance.md "Matched speeds" records.
"""
import argparse
import json
import os
import subprocess
import sys

MIB = 1024 * 1024


def rcvbuf_drops():
    """Datagrams the kernel has refused for want of receive-buffer room (this network
    namespace, all sockets); None where /proc/net/snmp does not say."""
    try:
        with open("/proc/net/snmp") as snmp:
            names, values = [line.split() for line in snmp if line.startswith("Udp:")]
        return int(values[names.index("RcvbufErrors")])
    except (OSError, ValueError):
        return None


def one_run(checkout, variant, workload_name, cells, seed):
    root = os.path.abspath(checkout)
    sys.path[:0] = [root, os.path.join(root, "src")]
    from layerbench import udp
    from layerbench.env import pinned
    from layerbench.ledger import quiet_decile
    from layerbench.spec import Workload, workload
    from layerbench.stats import percentile

    if variant:
        from repro.service import clientpump
        credit = int(variant[7:]) if variant.startswith("credit=") else None
        sized = clientpump._receive_credit
        # credit=N: make room for N packets (not the body) and advertise N — or the
        # fewer the kernel would grant; default-buffer: touch nothing, advertise nothing.
        clientpump._receive_credit = lambda sock, size: credit and (
            sized(sock, credit * 1024) or credit)
    if workload_name == "one_4mib_blast":
        spec = Workload(workload_name, "udp", "one 4 MiB blast pull per cell", dict(
            workload("udp_bulk_blast").params, streams=1, size=4 * MIB))
    else:
        spec = workload(workload_name)
    reports = []
    digest = udp._digest_report
    udp._digest_report = lambda phase, report, *rest: (
        reports.append(report), digest(phase, report, *rest))[1]
    dropped_before = rcvbuf_drops()
    with pinned() as pinning:
        phase = udp.run_phase(spec, seed, 600.0, pinning, max_cells=cells)
    dropped = None if dropped_before is None else rcvbuf_drops() - dropped_before
    good = [c for c in phase.cells if c.failed == 0 and c.busy_s > 0]
    goodput = [c.payload_bytes / MIB / c.busy_s for c in good]
    cpu = [c.cpu_s * 1e3 / (c.payload_bytes / MIB) for c in good]
    busy = sum(c.busy_s for c in phase.cells)
    summary, transfers = reports[-1]["summary"], reports[-1]["transfers"]
    return {
        "goodput_q10": round(quiet_decile(goodput, "higher"), 1),
        "goodput_median": round(percentile(goodput, 0.5), 1),
        "cpu_ms_per_mib_q10": round(quiet_decile(cpu, "lower"), 2),
        "server_util": round(sum(c.cpu_s for c in phase.cells) / busy, 2),
        "pump_util": round(phase.pump_cpu_s / busy, 2),
        "retransmits": summary["retransmits"], "data_frames": summary["data_frames"],
        # What the kernel dropped, the streams that needed a second round, and the
        # cells that sat out a reply timeout (0.5 s): an overrun shows in all three.
        "rcvbuf_drops": dropped,
        "streams_retried": sum(row["rounds"] > 1 for row in transfers),
        "slow_cells": sum(c.busy_s > 0.4 for c in phase.cells),
        "ok": summary["ok"], "failed": phase.failed, "cells": len(phase.cells),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT[:default-buffer|:credit=N]")
    parser.add_argument("--workload", default="udp_bulk_blast")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--cells", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:  # a child of the loop below: one checkout, one run, one line
        checkout, _, variant = args.checkouts[0].partition(":")
        print(json.dumps(one_run(checkout, variant, args.workload, args.cells, args.seed)))
        return
    for run in range(args.runs):
        # Each checkout imports its own layerbench and repro, so each run is a child;
        # the order alternates so a slow phase of the box cannot favour one side.
        for name in args.checkouts[::-1 if run % 2 else 1]:
            line = subprocess.run(
                [sys.executable, __file__, name, "--one", "--workload", args.workload,
                 "--cells", str(args.cells), "--seed", str(args.seed + run)],
                capture_output=True, text=True, check=True).stdout.splitlines()[-1]
            print(f"{name:<24} {line}", flush=True)


if __name__ == "__main__":
    main()
