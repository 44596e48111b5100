"""Ablation A5: the protocols on a real UDP/loopback transport.

Absolute loopback numbers are Python-interpreter-bound (noted in the
reproduction bands), so this bench asserts only *protocol orderings* and
correctness: blast completes in one round trip of replies where
stop-and-wait needs one per packet, and everything survives injected
loss.
"""

import threading

from repro.bench.tables import ExperimentTable
from repro.simnet import BernoulliErrors
from repro.udpnet import UdpTransfer

DATA = bytes(64 * 1024)


def transfer(error_model=None, **choice):
    """One transfer; ``choice`` (protocol/strategy) goes to both ends."""
    box = {}
    with UdpTransfer() as receiver, UdpTransfer(
        error_model=error_model
    ) as sender:
        thread = threading.Thread(
            target=lambda: box.update(received=receiver.serve_one(**choice)),
            daemon=True,
        )
        thread.start()
        sent = sender.send(DATA, receiver.address, **choice)
        thread.join(timeout=60)
    return sent, box["received"]


def udp_comparison() -> ExperimentTable:
    table = ExperimentTable(
        "Ablation A5: 64 KB over UDP loopback",
        ["protocol", "elapsed (ms)", "data frames", "reply frames", "intact"],
        notes=["absolute times are interpreter-bound; orderings only"],
    )
    def best_of(n, **choice):
        """Best elapsed of n runs — loopback timing is noisy."""
        return min((transfer(**choice) for _ in range(n)),
                   key=lambda pair: pair[0].elapsed_s)

    saw_sent, saw_received = best_of(3, protocol="saw")
    blast_sent, blast_received = best_of(
        3, protocol="blast", strategy="gobackn")
    for name, sent, received in (
        ("stop_and_wait", saw_sent, saw_received),
        ("blast gobackn", blast_sent, blast_received),
    ):
        table.add_row(
            name,
            f"{sent.elapsed_s * 1e3:.1f}",
            sent.data_frames_sent,
            received.reply_frames_sent,
            received.data == DATA,
        )
    return table


def check_udp(table) -> None:
    rows = {row[0]: row for row in table.rows}
    assert all(row[4] for row in table.rows)  # intact everywhere
    # Blast needs exactly one reply; SAW one per packet.
    assert rows["blast gobackn"][3] == 1
    assert rows["stop_and_wait"][3] == 64
    # Fewer round trips -> blast is faster even on loopback.
    assert float(rows["blast gobackn"][1]) < float(rows["stop_and_wait"][1])


def test_udp_lossless_ordering(benchmark, save_result):
    table = benchmark.pedantic(udp_comparison, rounds=1, iterations=1)
    check_udp(table)
    save_result("ablation_udp", table.render())


def test_udp_blast_under_loss(benchmark):
    def lossy_blast():
        return transfer(BernoulliErrors(0.05, seed=2),
                        protocol="blast", strategy="selective")

    sent, received = benchmark.pedantic(lossy_blast, rounds=1, iterations=1)
    assert sent.ok
    assert received.data == DATA
    assert sent.retransmissions > 0
