"""Ablation A5: the protocols on a real UDP/loopback transport.

Absolute loopback numbers are Python-interpreter-bound (noted in the
reproduction bands), so this bench asserts only *protocol orderings* and
correctness: blast completes in one round trip of replies where
stop-and-wait needs one per packet, and everything survives injected
loss.  Each transfer is one pull from the transfer service: the body
leaves the server, the replies leave the client.
"""

import json

from repro.bench.tables import ExperimentTable
from repro.faults import FaultPlan, FaultRule
from repro.service import ServiceConfig, run_udp_loadgen

SIZE = 64 * 1024
PACKETS = SIZE // 1024


def transfer(fault_plan=None, protocol="blast", strategy="gobackn"):
    """One pull of ``SIZE`` bytes; returns (pull, server report)."""
    config = ServiceConfig(protocol=protocol, strategy=strategy,
                           window=PACKETS + 1, timeout_s=0.1, max_rounds=200)
    result = run_udp_loadgen(1, config=config, size_bytes=SIZE,
                             fault_plan=fault_plan)
    return result.pulls[1], json.loads(result.report_json)


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

    for name, choice in (("stop_and_wait", {"protocol": "saw"}),
                         ("blast gobackn", {"strategy": "gobackn"})):
        pull, report = best_of(3, **choice)
        table.add_row(
            name,
            f"{pull.elapsed_s * 1e3:.1f}",
            report["transfers"][0]["data_frames"],
            # Everything the server took in but the one pull request.
            report["io"]["datagrams_in"] - 1,
            pull.ok,
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
    loss = FaultPlan(name="loss-5%", seed=2, rules=(FaultRule(
        action="drop", kinds=("data",), direction="send", probability=0.05),))

    def lossy_blast():
        return transfer(loss, strategy="selective")

    pull, report = benchmark.pedantic(lossy_blast, rounds=1, iterations=1)
    assert pull.ok  # every byte compared against the body
    assert report["transfers"][0]["ok"]
    assert report["transfers"][0]["retransmits"] > 0
