"""Seeded property tests: tracker and strategies under adversarial orders.

Fault plans double as arrival-order generators: ``replay.arrival_order``
turns a randomly built (but bounded) plan into a drop/duplicate/reorder
pattern over the sequence numbers of one transfer round.  Feeding those
arrival streams to :class:`~repro.core.tracker.ReceiverTracker` and to
all four retransmission strategies exercises the invariants the
protocols rely on, across hundreds of seeds, using only the stdlib RNG.
"""

import random

import pytest

from repro.core.frames import NakFrame
from repro.core.strategies import STRATEGY_REGISTRY, get_strategy
from repro.core.tracker import ReceiverTracker
from repro.faults.plan import FaultPlan, FaultRule

from .replay import arrival_order

SEEDS = range(40)


def _random_plan(rng: random.Random, total: int) -> FaultPlan:
    """A small bounded plan with a random mix of rules."""
    rules = []
    n_rules = rng.randint(1, 4)
    for _ in range(n_rules):
        action = rng.choice(["drop", "duplicate", "reorder", "delay"])
        style = rng.choice(["indices", "window", "stochastic"])
        kwargs = {}
        if style == "indices":
            count = rng.randint(1, min(4, total))
            kwargs["indices"] = tuple(
                rng.sample(range(total), count)
            )
        elif style == "window":
            first = rng.randint(0, total - 1)
            kwargs["first"] = first
            kwargs["last"] = rng.randint(first, total - 1)
        else:
            kwargs["probability"] = rng.uniform(0.1, 0.9)
            kwargs["times"] = rng.randint(1, total)
        if action == "duplicate":
            kwargs["count"] = rng.randint(1, 2)
        elif action == "reorder":
            kwargs["depth"] = rng.randint(1, 3)
        elif action == "delay":
            kwargs["delay_s"] = rng.uniform(0.5, 3.0)
        rules.append(FaultRule(action=action, **kwargs))
    plan = FaultPlan(name="prop", rules=tuple(rules), seed=rng.randint(0, 2**31))
    assert plan.is_bounded
    return plan


def _arrivals(seed: int, total: int):
    """Adversarial arrival order of sequence numbers for one round."""
    rng = random.Random(seed)
    plan = _random_plan(rng, total)
    return arrival_order(plan, list(range(total)), seed=seed)


class TestTrackerProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_matches_reference_set(self, seed):
        total = random.Random(seed ^ 0xA5).randint(2, 24)
        tracker = ReceiverTracker(total)
        seen = set()
        duplicates = 0
        for seq in _arrivals(seed, total):
            was_new = tracker.add(seq)
            assert was_new == (seq not in seen)
            if not was_new:
                duplicates += 1
            seen.add(seq)
            # Tracker state must mirror the reference set exactly.
            assert tracker.received == seen
            assert tracker.duplicates == duplicates
            missing = sorted(set(range(total)) - seen)
            assert list(tracker.missing()) == missing
            assert tracker.is_complete == (not missing)
            assert tracker.report().first_missing == (
                missing[0] if missing else None)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_report_is_consistent_snapshot(self, seed):
        total = random.Random(seed ^ 0x3C).randint(2, 24)
        tracker = ReceiverTracker(total)
        for seq in _arrivals(seed, total):
            tracker.add(seq)
            report = tracker.report()
            assert report.total == total
            assert report.complete == tracker.is_complete
            assert report.missing == tracker.missing()
            assert report.first_missing == min(
                set(range(total)) - tracker.received, default=None)
            if not report.complete:
                # Every incomplete report must be expressible as a NAK.
                nak = NakFrame(
                    transfer_id=1,
                    first_missing=report.first_missing,
                    missing=report.missing,
                    total=report.total,
                )
                assert nak.first_missing == report.missing[0]


class TestStrategyProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
    def test_working_set_invariants(self, name, seed):
        total = random.Random(seed ^ 0x77).randint(2, 24)
        strategy = get_strategy(name)
        tracker = ReceiverTracker(total)

        # Timer-detected failure: no report available.
        assert strategy.next_working_set(total, None) == list(range(total))

        for seq in _arrivals(seed, total):
            tracker.add(seq)
            report = tracker.report()
            working = strategy.next_working_set(total, report)
            # Invariants every strategy must satisfy:
            assert working == sorted(working)
            assert len(working) == len(set(working))
            assert all(0 <= seq_ < total for seq_ in working)
            # The working set always covers what is still missing.
            assert set(report.missing) <= set(working)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_strategy_specific_shapes(self, seed):
        total = random.Random(seed ^ 0x1F).randint(2, 24)
        tracker = ReceiverTracker(total)
        full = get_strategy("full_no_nak")
        full_nak = get_strategy("full_nak")
        gobackn = get_strategy("gobackn")
        selective = get_strategy("selective")
        for seq in _arrivals(seed, total):
            tracker.add(seq)
            report = tracker.report()
            everything = list(range(total))
            assert full.next_working_set(total, report) == everything
            assert full_nak.next_working_set(total, report) == everything
            if report.complete:
                assert gobackn.next_working_set(total, report) == everything
                assert selective.next_working_set(total, report) == everything
            else:
                assert gobackn.next_working_set(total, report) == list(
                    range(report.first_missing, total)
                )
                assert selective.next_working_set(total, report) == list(
                    report.missing
                )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_selective_never_resends_more_than_gobackn(self, seed):
        total = random.Random(seed ^ 0x42).randint(2, 24)
        tracker = ReceiverTracker(total)
        gobackn = get_strategy("gobackn")
        selective = get_strategy("selective")
        for seq in _arrivals(seed, total):
            tracker.add(seq)
            report = tracker.report()
            n_selective = len(selective.next_working_set(total, report))
            n_gobackn = len(gobackn.next_working_set(total, report))
            assert n_selective <= n_gobackn


class TestRepeatedRounds:
    """Drive tracker + strategy to completion under repeated faulty rounds."""

    @pytest.mark.parametrize("name", sorted(STRATEGY_REGISTRY))
    @pytest.mark.parametrize("seed", range(10))
    def test_convergence_under_bounded_faults(self, name, seed):
        total = random.Random(seed ^ 0x99).randint(2, 16)
        strategy = get_strategy(name)
        tracker = ReceiverTracker(total)
        working = list(range(total))
        rounds = 0
        round_seed = seed
        while not tracker.is_complete:
            rounds += 1
            assert rounds <= 64, "strategy failed to converge"
            rng = random.Random(round_seed)
            plan = _random_plan(rng, max(len(working), 2))
            for seq in arrival_order(plan, working, seed=round_seed):
                tracker.add(seq)
            working = strategy.next_working_set(total, tracker.report())
            round_seed += 1
        assert tracker.missing() == ()
        assert tracker.report().complete
