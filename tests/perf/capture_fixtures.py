"""Record seed-kernel fixtures for the fastpath-equivalence tests.

Run once against the *seed* (pre-optimization) kernel and codec; the
recorded traces, wire bytes and digests become the contract that the
optimized fast path must reproduce byte-for-byte:

    PYTHONPATH=src python tests/perf/capture_fixtures.py

The outputs are committed under ``tests/perf/fixtures/``; re-running
against an equivalent kernel must be a no-op diff.

The ``scenario:*`` digests (``workloads.contention_digests``) were added
in PR 17 and recorded the same way from the then-unmodified PR 16 kernel
— ``PYTHONPATH`` pointing at a clone of the parent commit holding only
the new ``perf/workloads.py`` — before any hand-off left the heap.  A new
scenario is always recorded from the parent of the change it is to pin.

Three digests were re-recorded, from the live tree, by the PR that put
the simulated transfers on ``service/machines.py`` (PR 19), because the
behaviour they cover was meant to change; every other digest, trace and
wire byte came out identical.  ``scenario:noisy`` and
``scenario:shared_network`` drive stop-and-wait through duplicated and
late acknowledgements, which the generator engine answered with a
retransmission each and the machine ignores (shared network, interrupt
mode: 32 data frames for 16 packets -> 23); ``run_many:sliding_window``
is sliding window under 2 % loss, now one timer per packet instead of
rounds after the first pass.  What the engines did everywhere else is
pinned in ``tests/core/fixtures/engine_reference.json``.
"""

from __future__ import annotations

import json
import os

from repro.perf import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")


def main() -> None:
    os.makedirs(FIXTURES, exist_ok=True)

    datagrams = workloads.canonical_datagrams()
    with open(os.path.join(FIXTURES, "wire_frames.hex"), "w") as handle:
        for datagram in datagrams:
            handle.write(datagram.hex() + "\n")

    digests = {"wire": workloads.wire_digest(datagrams),
               "kernel": workloads.kernel_digest()}

    for protocol in workloads.CANONICAL_TRACE_PROTOCOLS:
        ascii_art, span_digest = workloads.canonical_trace(protocol)
        path = os.path.join(FIXTURES, f"trace_{protocol}.txt")
        with open(path, "w") as handle:
            handle.write(ascii_art)
        digests[f"trace:{protocol}"] = span_digest
        digests[f"run_many:{protocol}"] = workloads.run_digest(protocol, n_jobs=1)
    digests.update(workloads.contention_digests())

    with open(os.path.join(FIXTURES, "seed_digests.json"), "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for key in sorted(digests):
        print(f"{key}: {digests[key]}")
    print(f"wrote fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
