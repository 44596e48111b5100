"""Ablation A13: adaptive vs fixed retransmission timers.

Figure 6 shows the cost of a badly chosen fixed T_r: the no-NAK sigma is
proportional to it.  An adaptive (Jacobson/Karn) timer removes the
tuning burden: across a 40-transfer workload at interface-grade loss, a
sender that starts with a 100x-too-large guess converges within one
transfer and matches the hand-tuned fixed timer, while a permanently
mistuned fixed timer pays on every loss.
"""

import statistics

from repro.bench.tables import ExperimentTable, format_ms
from repro.core import AdaptiveTimeout, BlastTransfer
from repro.analysis import t_blast
from repro.sim import Environment
from repro.simnet import BernoulliErrors, NetworkParams, make_lan

N = 16
N_TRANSFERS = 40
PN = 5e-3
PARAMS = NetworkParams.standalone()


def run_workload(timer):
    """40 sequential blasts sharing one timer; per-transfer times.

    ``timer`` is the keyword a sender's ``BlastTransfer`` takes: a fixed
    ``timeout_s`` or one ``timeout_policy`` shared by the whole workload.
    """
    env = Environment()
    sender, receiver, _ = make_lan(
        env, PARAMS, error_model=BernoulliErrors(PN, seed=99)
    )
    elapsed = []

    def run_all():
        for index in range(N_TRANSFERS):
            transfer = BlastTransfer(
                env, sender, receiver, bytes(N * 1024),
                strategy="full_no_nak", transfer_id=index + 1, **timer,
            )
            start = env.now
            yield transfer.launch()
            assert transfer.result().data_intact
            elapsed.append(env.now - start)

    env.run(env.process(run_all()))
    return elapsed


def timer_sweep() -> ExperimentTable:
    t0 = t_blast(N, PARAMS)
    table = ExperimentTable(
        f"Ablation A13: timer policy over {N_TRANSFERS} transfers "
        f"(16 KB, p_n={PN}, full retransmission no NAK)",
        ["policy", "mean (ms)", "p-worst (ms)", "total (ms)"],
        notes=[f"error-free transfer time T0 = {t0 * 1e3:.1f} ms"],
    )
    for label, timer in (
        ("fixed T_r = T0 (hand-tuned)", dict(timeout_s=t0)),
        ("fixed T_r = 10 x T0", dict(timeout_s=10 * t0)),
        ("fixed T_r = 100 x T0 (mistuned)", dict(timeout_s=100 * t0)),
        ("adaptive, initial = 100 x T0",
         dict(timeout_policy=AdaptiveTimeout(initial_s=100 * t0))),
    ):
        times = run_workload(timer)
        table.add_row(
            label,
            format_ms(statistics.fmean(times)),
            format_ms(max(times)),
            format_ms(sum(times)),
        )
    return table


def check_timers(table) -> None:
    totals = {row[0]: float(row[3]) for row in table.rows}
    tuned = totals["fixed T_r = T0 (hand-tuned)"]
    mistuned = totals["fixed T_r = 100 x T0 (mistuned)"]
    adaptive = totals["adaptive, initial = 100 x T0"]
    # A mistuned fixed timer is catastrophic over the workload...
    assert mistuned > 2 * tuned
    # ...the adaptive timer with the SAME bad initial guess converges and
    # lands within 25 % of hand-tuned.
    assert adaptive < tuned * 1.25
    assert adaptive < mistuned / 2


def test_ablation_adaptive_timer(benchmark, save_result):
    table = benchmark.pedantic(timer_sweep, rounds=1, iterations=1)
    check_timers(table)
    save_result("ablation_adaptive_timer", table.render())
