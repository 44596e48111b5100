"""Multi-blast under fault-plan reordering (satellite of the service PR).

``MultiBlastTransfer`` folds per-blast payloads into a shared offset
table, so interleaved/duplicated arrival orders are exactly where an
off-by-one in the chunk bookkeeping would corrupt the reassembly.  These
tests drive it with the builtin reorder plans — both over a pure
sequence (``tests/faults/replay.py``, to pin the arrival orders
themselves) and through ``ScriptedErrors`` on the simulated wire.
"""

from dataclasses import astuple

import pytest

from repro.analysis.errorfree import t_single_exchange
from repro.core import run_transfer
from repro.core.base import BlastTransfer, MachineTransfer, MultiBlastTransfer
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.plans import builtin_plan
from repro.faults.scripted import ScriptedErrors
from repro.sim import Environment
from repro.simnet import NetworkParams, make_lan

from ..faults.replay import arrival_order

PARAMS = NetworkParams.standalone()


def payload(n_packets):
    return bytes(range(256)) * 4 * n_packets  # n_packets KiB, patterned


class TestReorderArrivalOrders:
    def test_reorder_window_interleaves(self):
        plan = builtin_plan("reorder-window")
        order = arrival_order(plan, list(range(10)))
        assert sorted(order) == list(range(10))  # nothing lost
        assert order != list(range(10))  # but genuinely out of order

    def test_dup_reorder_duplicates_and_interleaves(self):
        plan = builtin_plan("dup+reorder")
        order = arrival_order(plan, list(range(10)))
        assert set(order) == set(range(10))
        assert len(order) > 10  # dup-burst added arrivals
        assert order != sorted(order)

    def test_arrival_order_deterministic(self):
        plan = builtin_plan("dup+reorder")
        items = list(range(12))
        assert arrival_order(plan, items) == arrival_order(plan, items)


class TestMultiBlastUnderReorder:
    @pytest.mark.parametrize("plan_name", ["reorder-window", "dup+reorder"])
    @pytest.mark.parametrize("strategy", ["gobackn", "selective"])
    def test_data_intact_under_builtin_plans(self, plan_name, strategy):
        data = payload(10)
        result = run_transfer(
            "multiblast", data, params=PARAMS, blast_packets=3,
            strategy=strategy,
            error_model=ScriptedErrors(builtin_plan(plan_name), seed=3),
        )
        assert result.data_intact
        assert result.data == data

    def test_deep_reorder_across_blast_boundary(self):
        # A depth-4 reorder at the last packet of blast 0 pushes it past
        # the first packets of blast 1 — the cross-chunk interleaving
        # the offset table must survive.
        plan = FaultPlan(
            name="cross-blast-reorder",
            rules=(
                FaultRule(action="reorder", kinds=("data",),
                          direction="send", indices=(2, 3), depth=4),
            ),
            description="straddle the blast boundary",
        )
        data = payload(8)
        result = run_transfer(
            "multiblast", data, params=PARAMS, blast_packets=4,
            strategy="selective", error_model=ScriptedErrors(plan, seed=0),
        )
        assert result.data_intact and result.data == data

    def test_reorder_run_is_deterministic(self):
        data = payload(6)

        def run():
            return run_transfer(
                "multiblast", data, params=PARAMS, blast_packets=2,
                strategy="selective",
                error_model=ScriptedErrors(builtin_plan("dup+reorder"),
                                           seed=9),
            )

        first, second = run(), run()
        assert first.elapsed_s == second.elapsed_s
        assert first.stats.data_frames_sent == second.stats.data_frames_sent
        assert first.stats.duplicates_received == second.stats.duplicates_received

    def test_duplicates_are_counted_not_reassembled(self):
        data = payload(6)
        result = run_transfer(
            "multiblast", data, params=PARAMS, blast_packets=3,
            strategy="selective",
            error_model=ScriptedErrors(builtin_plan("dup-burst"), seed=1),
        )
        assert result.data_intact and result.data == data
        assert result.stats.duplicates_received >= 1


class CreditedBlast(MachineTransfer):
    """A blast whose sender machine gets ``credit=`` through
    ``make_sender_machine``, as a ``PullMachine`` request would have it."""

    name = machine = "blast"
    default_timeout = BlastTransfer.default_timeout


def run_large(transfer_class, strategy, error_model=None, **options):
    env = Environment()
    sender, receiver, _medium = make_lan(env, PARAMS, error_model=error_model)
    # Spelled out for both: BlastTransfer's own default, which a bare
    # MachineTransfer does not fill in.
    transfer = transfer_class(env, sender, receiver, bytes(256 * 1024),
                              strategy=strategy,
                              reliable_retry_s=t_single_exchange(PARAMS),
                              **options)
    env.run(transfer.launch())
    return transfer.result()


class TestWhyTheLoopStays:
    """ROADMAP item 6 asked for A2 as ``credit=`` and the loop deleted.
    A credited blast *is* the loop while nothing is lost, and is not once
    something is: its report restarts the strategy's working set over the
    whole body, the loop's over one blast."""

    @pytest.mark.parametrize("packets", [16, 64])
    @pytest.mark.parametrize("strategy", ["full_nak", "gobackn", "selective"])
    def test_error_free_a_credited_blast_is_the_loop(self, strategy, packets):
        credited = run_large(CreditedBlast, strategy, credit=packets)
        loop = run_large(MultiBlastTransfer, strategy, blast_packets=packets)
        assert credited.elapsed_s == loop.elapsed_s
        # Every counter but ``rounds``: a returned credit is not a round.
        assert astuple(credited.stats)[:4] == astuple(loop.stats)[:4]
        assert (credited.stats.rounds, loop.stats.rounds) == (1, 256 // packets)

    def test_the_timer_only_strategy_cannot_return_credit(self):
        # Its receiver is silent until the body is whole, so the second
        # burst never opens: PullMachine advertises no credit for it.
        with pytest.raises(RuntimeError, match="gave up"):
            run_large(CreditedBlast, "full_no_nak", credit=16, max_rounds=3)
        assert run_large(MultiBlastTransfer, "full_no_nak",
                         blast_packets=16).data_intact

    def test_one_late_loss_under_full_nak_resends_the_body_not_the_blast(self):
        def late_loss():
            return ScriptedErrors(FaultPlan(
                name="late-loss", description="packet 200 of 256, once",
                rules=(FaultRule(action="drop", kinds=("data",),
                                 direction="send", indices=(200,)),)), seed=0)

        credited = run_large(CreditedBlast, "full_nak", late_loss(), credit=16)
        loop = run_large(MultiBlastTransfer, "full_nak", late_loss(),
                         blast_packets=16)
        assert credited.data_intact and loop.data_intact
        assert loop.stats.data_frames_sent == 256 + 16
        assert credited.stats.data_frames_sent >= 1.5 * loop.stats.data_frames_sent
