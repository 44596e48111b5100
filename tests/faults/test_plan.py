"""Unit tests for the fault-plan DSL and its interpreter."""

import math
import pickle

import pytest

from repro.faults.conformance import _frame_bound
from repro.faults.plan import (
    FaultDecision,
    FaultPlan,
    FaultRule,
    PlanExecutor,
    frame_stream_key,
)

from .replay import arrival_order


class TestFaultRuleValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="action"):
            FaultRule(action="explode")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule(action="drop", kinds=("datagram",))

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            FaultRule(action="drop", direction="sideways")

    def test_empty_index_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            FaultRule(action="drop", first=5, last=2)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(action="drop", probability=0.0)
        with pytest.raises(ValueError, match="probability"):
            FaultRule(action="drop", probability=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_s"):
            FaultRule(action="delay", delay_s=-0.1)

    def test_zero_corrupt_mask_rejected(self):
        with pytest.raises(ValueError, match="corrupt_mask"):
            FaultRule(action="corrupt", corrupt_mask=0)

    def test_indices_deduplicated_and_sorted(self):
        rule = FaultRule(action="drop", indices=(5, 1, 5, 3))
        assert rule.indices == (1, 3, 5)


class TestBudgets:
    def test_times_bounds_a_rule(self):
        assert FaultRule(action="drop", times=4).max_triggers() == 4

    def test_index_window_bounds_a_rule(self):
        assert FaultRule(action="drop", first=2, last=6).max_triggers() == 5

    def test_periodic_window_divides(self):
        rule = FaultRule(action="drop", first=0, last=9, every=3)
        assert rule.max_triggers() == 4  # indices 0, 3, 6, 9

    def test_unbounded_rule_is_infinite(self):
        assert FaultRule(action="drop", every=2).max_triggers() == math.inf

    def test_plan_budget_sums_rules(self):
        plan = FaultPlan(
            name="two",
            rules=(
                FaultRule(action="drop", times=2),
                FaultRule(action="duplicate", indices=(0, 4)),
            ),
        )
        assert plan.fault_budget() == 4
        assert plan.is_bounded

    def test_validate_bounded_rejects_open_plans(self):
        """An open plan has no finite budget, so the conformance harness
        derives no frame bound for it (0 = unbounded, not checked)."""
        open_plan = FaultPlan(
            name="forever", rules=(FaultRule(action="drop", every=2),)
        )
        assert not open_plan.is_bounded
        assert open_plan.fault_budget() == math.inf
        assert _frame_bound(8, open_plan) == 0
        closed = FaultPlan(name="once", rules=(FaultRule(action="drop", times=1),))
        assert _frame_bound(8, closed) > 8


class TestSerialisation:
    def test_round_trip_preserves_equality(self):
        """A plan crosses a process boundary by pickling, as it is."""
        plan = FaultPlan(
            name="rt",
            seed=11,
            description="round trip",
            rules=(
                FaultRule(action="drop", kinds=("data",), first=0, last=2),
                FaultRule(
                    action="corrupt", kinds=("reply",), direction="recv",
                    indices=(1, 4), corrupt_mask=0x5A, silent=True,
                ),
                FaultRule(action="delay", delay_s=0.25, every=2, last=9),
                FaultRule(action="duplicate", probability=0.5, times=3, count=2),
            ),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestPlanExecutor:
    def test_index_window_selects_stream_positions(self):
        plan = FaultPlan(
            name="w",
            rules=(FaultRule(action="drop", kinds=("data",), first=1, last=2),),
        )
        ex = PlanExecutor(plan)
        hits = [ex.decide("data", "send").drop for _ in range(5)]
        assert hits == [False, True, True, False, False]

    def test_kind_filter_keeps_separate_streams(self):
        plan = FaultPlan(
            name="k", rules=(FaultRule(action="drop", kinds=("data",), indices=(0,)),)
        )
        ex = PlanExecutor(plan)
        # An ack does not advance the data-rule stream counter.
        assert not ex.decide("ack", "recv").drop
        assert ex.decide("data", "send").drop

    def test_reply_alias_matches_ack_and_nak(self):
        plan = FaultPlan(
            name="r",
            rules=(FaultRule(action="drop", kinds=("reply",), first=0, last=1),),
        )
        ex = PlanExecutor(plan)
        assert ex.decide("ack", "recv").drop
        assert ex.decide("nak", "recv").drop
        assert not ex.decide("data", "send").drop

    def test_direction_filter(self):
        plan = FaultPlan(
            name="d", rules=(FaultRule(action="drop", direction="recv"),)
        )
        ex = PlanExecutor(plan)
        assert not ex.decide("data", "send").drop
        assert ex.decide("ack", "recv").drop

    def test_seq_filter(self):
        plan = FaultPlan(
            name="s", rules=(FaultRule(action="drop", seqs=(3,)),)
        )
        ex = PlanExecutor(plan)
        assert not ex.decide("data", "send", seq=2).drop
        assert ex.decide("data", "send", seq=3).drop

    def test_an_empty_selector_selects_no_frame(self):
        """``indices=()`` and ``seqs=()`` name no frame; only an unset
        selector (None) means "any"."""
        rules = (FaultRule("drop", indices=()), FaultRule("drop", seqs=()))
        for rule in rules:
            ex = PlanExecutor(FaultPlan(name="none", rules=(rule,)))
            assert not any(ex.decide("data", "send", seq=seq).drop
                           for seq in range(8))
            assert ex.faults_fired == 0
        assert [rule.max_triggers() for rule in rules] == [0, math.inf]
        assert FaultPlan(name="none", rules=rules[:1]).is_bounded
        ex = PlanExecutor(FaultPlan(name="any", rules=(FaultRule("drop"),)))
        assert all(ex.decide("data", "send", seq=seq).drop
                   for seq in range(8))

    def test_times_budget_caps_firings(self):
        plan = FaultPlan(
            name="t", rules=(FaultRule(action="drop", times=2),)
        )
        ex = PlanExecutor(plan)
        fired = [ex.decide("data", "send").drop for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert ex.faults_fired == 2

    def test_combined_actions_merge(self):
        plan = FaultPlan(
            name="m",
            rules=(
                FaultRule(action="duplicate", count=2, times=1),
                FaultRule(action="delay", delay_s=0.1, times=1),
            ),
        )
        decision = PlanExecutor(plan).decide("data", "send")
        assert decision.duplicates == 2
        assert decision.delay_s == 0.1
        assert not decision.drop

    def test_stochastic_rule_replays_for_equal_seed(self):
        plan = FaultPlan(
            name="p",
            rules=(FaultRule(action="drop", probability=0.5, times=50),),
        )
        runs = []
        for _ in range(2):
            ex = PlanExecutor(plan, seed=123)
            runs.append([ex.decide("data", "send").drop for _ in range(40)])
        assert runs[0] == runs[1]
        assert any(runs[0]) and not all(runs[0])

    def test_different_seeds_differ(self):
        plan = FaultPlan(
            name="p2",
            rules=(FaultRule(action="drop", probability=0.5, times=100),),
        )
        a = [PlanExecutor(plan, seed=1).decide("data", "send").drop for _ in range(1)]
        runs = {}
        for seed in (1, 2):
            ex = PlanExecutor(plan, seed=seed)
            runs[seed] = [ex.decide("data", "send").drop for _ in range(60)]
        assert runs[1] != runs[2]
        assert a  # first draw recorded without error

    def test_no_fault_decision_is_inert(self):
        decision = FaultDecision()
        assert not (decision.drop or decision.corrupt or decision.duplicates
                    or decision.delay_s or decision.reorder_depth)


class TestApplyToSequence:
    """A plan applied to a pure sequence (``replay.arrival_order``, the
    arrival orders the tracker and multi-blast properties run on)."""

    def test_drop_removes_items(self):
        plan = FaultPlan(
            name="d", rules=(FaultRule(action="drop", indices=(0, 2)),)
        )
        assert arrival_order(plan, [10, 11, 12, 13]) == [11, 13]

    def test_duplicate_repeats_items(self):
        plan = FaultPlan(
            name="dup", rules=(FaultRule(action="duplicate", indices=(1,)),)
        )
        assert arrival_order(plan, [0, 1, 2]) == [0, 1, 1, 2]

    def test_reorder_pushes_item_back(self):
        plan = FaultPlan(
            name="ro",
            rules=(FaultRule(action="reorder", indices=(0,), depth=2),),
        )
        assert arrival_order(plan, [0, 1, 2, 3]) == [1, 2, 0, 3]

    def test_delay_moves_item_later(self):
        plan = FaultPlan(
            name="dl",
            rules=(FaultRule(action="delay", indices=(0,), delay_s=2.5),),
        )
        assert arrival_order(plan, [0, 1, 2, 3], spacing_s=1.0) == [1, 2, 0, 3]

    def test_detectable_corruption_is_removal(self):
        plan = FaultPlan(
            name="c", rules=(FaultRule(action="corrupt", indices=(1,)),)
        )
        assert arrival_order(plan, [0, 1, 2]) == [0, 2]

    def test_seq_matching_on_int_items(self):
        plan = FaultPlan(
            name="sq", rules=(FaultRule(action="drop", seqs=(7,)),)
        )
        assert arrival_order(plan, [5, 7, 9]) == [5, 9]

    def test_deterministic_for_equal_seeds(self):
        plan = FaultPlan(
            name="det",
            rules=(
                FaultRule(action="drop", probability=0.3, times=10),
                FaultRule(action="duplicate", probability=0.3, times=10),
            ),
        )
        items = list(range(30))
        assert arrival_order(plan, items, seed=5) == arrival_order(
            plan, items, seed=5
        )


class TestFrameStreamKey:
    def test_classifies_core_frames(self):
        from repro.core.frames import AckFrame, ControlFrame, DataFrame, NakFrame

        data = DataFrame(transfer_id=1, seq=3, total=8, payload=b"x")
        ack = AckFrame(transfer_id=1, seq=3)
        nak = NakFrame(transfer_id=1, first_missing=2, missing=(2, 5), total=8)
        ctrl = ControlFrame(transfer_id=0, request_id=9, body=b"{}")
        assert frame_stream_key(data) == ("data", "send", 3)
        assert frame_stream_key(ack) == ("ack", "recv", 3)
        assert frame_stream_key(nak) == ("nak", "recv", 2)
        assert frame_stream_key(ctrl) == ("control", "send", 9)

    def test_unknown_objects_are_kind_agnostic(self):
        assert frame_stream_key(object()) == (None, "both", None)
