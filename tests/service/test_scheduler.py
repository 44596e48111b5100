"""Unit tests for the scheduling policies."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.scheduler import (
    CopyBudgetPolicy,
    FifoPolicy,
    RoundRobinPolicy,
    get_policy,
    policy_names,
)

from .reference_engine import _LegacyRoundRobinPolicy


class FakeMachine:
    def __init__(self, available):
        self.available = available

    def frames_available(self, now):
        return self.available

    def has_frame(self, now):
        return self.available > 0


@dataclass
class FakeEntry:
    machine: FakeMachine
    client: str


class TableView:
    """The engine's schedule view over a plain admission-ordered dict."""

    def __init__(self, table):
        self.table = table

    def ready_iter(self, now):
        return ((stream_id, entry) for stream_id, entry in self.table.items()
                if entry.machine.frames_available(now) > 0)

    def client_count(self):
        return len(self.client_positions())

    def client_positions(self):
        position = {}
        for entry in self.table.values():
            position.setdefault(entry.client, len(position))
        return position


def active(*specs):
    """specs: (stream_id, client, frames_available)."""
    return TableView({
        stream_id: FakeEntry(FakeMachine(avail), client)
        for stream_id, client, avail in specs
    })


class TestFifo:
    def test_head_drains_first(self):
        table = active((1, "a", 5), (2, "b", 5))
        assert FifoPolicy().grants(table, 0.0, 4) == [1, 1, 1, 1]

    def test_spills_to_next_when_head_short(self):
        table = active((1, "a", 2), (2, "b", 5))
        assert FifoPolicy().grants(table, 0.0, 4) == [1, 1, 2, 2]

    def test_empty_table(self):
        assert FifoPolicy().grants(active(), 0.0, 4) == []


class TestRoundRobin:
    def test_alternates_between_clients(self):
        table = active((1, "a", 5), (2, "b", 5))
        grants = RoundRobinPolicy().grants(table, 0.0, 4)
        assert grants == [1, 2, 1, 2]

    def test_rotation_persists_across_calls(self):
        policy = RoundRobinPolicy()
        table = active((1, "a", 5), (2, "b", 5))
        first = policy.grants(table, 0.0, 1)
        second = policy.grants(table, 0.0, 1)
        assert first + second == [1, 2]

    def test_skips_empty_clients(self):
        table = active((1, "a", 0), (2, "b", 3))
        assert RoundRobinPolicy().grants(table, 0.0, 2) == [2, 2]

    def test_terminates_when_nothing_available(self):
        table = active((1, "a", 0), (2, "b", 0))
        assert RoundRobinPolicy().grants(table, 0.0, 8) == []

    def test_same_client_streams_share_turn(self):
        table = active((1, "a", 5), (2, "a", 5), (3, "b", 5))
        grants = RoundRobinPolicy().grants(table, 0.0, 4)
        # Client "a" serves stream 1 on its turns; "b" serves stream 3.
        assert grants == [1, 3, 1, 3]


    def test_a_short_budget_asks_no_machine_how_many(self):
        # One frame each to the first `budget` ready streams: a ready
        # stream has a frame by definition, so nothing needs counting.
        class ReadySet(TableView):
            def ready_iter(self, now):      # the engine's: no machine asked
                return iter(self.table.items())

        asked = []

        class Machine(FakeMachine):
            def frames_available(self, now):
                asked.append(self)
                return self.available

        table = ReadySet({n: FakeEntry(Machine(3), f"c{n}")
                          for n in range(1, 10)})
        policy = RoundRobinPolicy()
        policy._cursor = 7
        assert policy.grants(table, 0.0, 8) == [8, 9, 1, 2, 3, 4, 5, 6]
        assert asked == [] and policy._cursor == 6
        assert policy.grants(table, 0.0, 10) == [7, 8, 9, 1, 2, 3, 4, 5, 6, 7]
        assert len(asked) == 9              # more than a cycle: once each

    def test_whole_cycles_are_dealt_until_a_stream_runs_dry(self):
        table = active((1, "a", 2), (2, "b", 5), (3, "c", 1))
        policy = RoundRobinPolicy()
        assert policy.grants(table, 0.0, 20) == [1, 2, 3, 1, 2, 2, 2, 2]
        assert policy._cursor == 2          # one past "b", the last served

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_table_matches_the_historical_walk(self, data):
        """One stream per client (the dealt path) or several (the
        walk), any cursor, any budget, call after call: the grants and
        the rotation are those of the frozen visit-every-client walk."""
        clients = data.draw(st.sampled_from(["abc", "abcdefgh"]))
        streams = data.draw(st.lists(
            st.tuples(st.sampled_from(clients), st.integers(0, 6)),
            max_size=8))
        if data.draw(st.booleans()):        # one stream per client
            streams = list({client: (client, left)
                            for client, left in streams}.values())
        table = active(*((n + 1, client, left)
                         for n, (client, left) in enumerate(streams)))
        live, frozen = RoundRobinPolicy(), _LegacyRoundRobinPolicy()
        live._cursor = frozen._cursor = data.draw(st.integers(0, 9))
        for budget in data.draw(st.lists(st.integers(0, 20), min_size=1,
                                         max_size=4)):
            grants = live.grants(table, 0.0, budget)
            assert grants == frozen.grants(table.table, 0.0, budget)
            for stream_id in grants:
                table.table[stream_id].machine.available -= 1
            count = table.client_count()
            if count:
                assert live._cursor % count == frozen._cursor % count


class TestCopyBudget:
    def test_caps_grants_per_quantum(self):
        policy = CopyBudgetPolicy(quantum_s=0.01, copy_s_per_packet=0.004)
        table = active((1, "a", 10))
        assert len(policy.grants(table, 0.0, 8)) == 2  # floor(0.01/0.004)
        assert policy.grants(table, 0.005, 8) == []  # same window: spent
        assert policy.budget_exhausted(0.005)

    def test_budget_replenishes_next_window(self):
        policy = CopyBudgetPolicy(quantum_s=0.01, copy_s_per_packet=0.004)
        table = active((1, "a", 10))
        policy.grants(table, 0.0, 8)
        assert len(policy.grants(table, 0.011, 8)) == 2
        assert policy.next_window_start(0.011) == pytest.approx(0.02)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            CopyBudgetPolicy(quantum_s=0.0)


class TestRegistry:
    def test_names_are_canonical(self):
        assert policy_names() == ["fifo", "rr", "copy-budget"]

    def test_get_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown policy"):
            get_policy("lottery")

    def test_get_policy_kwargs(self):
        policy = get_policy("copy-budget", quantum_s=0.02,
                            copy_s_per_packet=0.01)
        assert policy.per_quantum == 2
