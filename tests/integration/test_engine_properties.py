"""Property-based tests: every protocol delivers intact data under any
scripted loss pattern (within termination bounds).

These drive the full DES stack — hosts, medium, the transfer driver and
the machines — with hypothesis-chosen drop patterns, the strongest "no
corner case left" statement the reproduction makes about the protocol
implementations.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_transfer
from repro.sim import Store
from repro.simnet import BernoulliErrors, NetworkParams

from ..faults import replay

PARAMS = NetworkParams.standalone()

# Small transfers keep hypothesis fast; drop indices cover several rounds.
drop_pattern = st.sets(st.integers(0, 25), max_size=8)


def payload(n_packets: int) -> bytes:
    return bytes((i * 37) % 256 for i in range(n_packets * 1024))


class TestLossPatternConvergence:
    @given(drops=drop_pattern, n=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_stop_and_wait_delivers(self, drops, n):
        data = payload(n)
        result = run_transfer(
            "stop_and_wait", data, params=PARAMS,
            error_model=replay.drops(*drops),
        )
        assert result.data_intact
        assert result.data == data

    @given(drops=drop_pattern, n=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_sliding_window_delivers(self, drops, n):
        data = payload(n)
        result = run_transfer(
            "sliding_window", data, params=PARAMS,
            error_model=replay.drops(*drops),
        )
        assert result.data_intact

    @given(
        drops=drop_pattern,
        n=st.integers(1, 6),
        strategy=st.sampled_from(
            ["full_no_nak", "full_nak", "gobackn", "selective"]
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_blast_delivers_under_all_strategies(self, drops, n, strategy):
        data = payload(n)
        result = run_transfer(
            "blast", data, params=PARAMS, strategy=strategy,
            error_model=replay.drops(*drops),
        )
        assert result.data_intact
        assert result.data == data
        # Conservation: at least one frame per packet was sent, and
        # every retransmitted frame is accounted for.
        assert result.stats.data_frames_sent >= n
        assert (
            result.stats.data_frames_sent
            == n + result.stats.retransmitted_data_frames
        )

    @given(drops=drop_pattern, n=st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_multiblast_delivers(self, drops, n):
        data = payload(n)
        result = run_transfer(
            "multiblast", data, params=PARAMS, blast_packets=3,
            strategy="selective", error_model=replay.drops(*drops),
        )
        assert result.data_intact
        assert result.data == data

    @given(
        drops=drop_pattern,
        strategy=st.sampled_from(["gobackn", "selective"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_selective_never_sends_more_than_gobackn(self, drops, strategy):
        """Work ordering under identical loss scripts: selective's frame
        count is a lower bound for go-back-n's, which lower-bounds full."""
        data = payload(5)
        counts = {}
        for s in ("selective", "gobackn", "full_nak"):
            result = run_transfer(
                "blast", data, params=PARAMS, strategy=s,
                error_model=replay.drops(*drops),
            )
            assert result.data_intact
            counts[s] = result.stats.data_frames_sent
        assert counts["selective"] <= counts["gobackn"] + 2
        # (+2 slack: reliable-last retries can differ by a frame when the
        # loss script hits different wire positions across strategies.)


class TestRandomLossOnTheDriver:
    """Any seed, up to 20 % Bernoulli loss, every protocol and strategy:
    the driver terminates with the payload intact and never hands the
    kernel a deadline that has already passed."""

    @given(
        cell=st.sampled_from([
            ("stop_and_wait", {}), ("sliding_window", {}),
            ("sliding_window", {"window": 3}),
            ("blast", {"strategy": "full_no_nak"}),
            ("blast", {"strategy": "full_nak"}),
            ("blast", {"strategy": "gobackn"}),
            ("blast", {"strategy": "selective"}),
        ]),
        n=st.integers(1, 16),
        loss=st.floats(0.0, 0.2),
        seed=st.integers(0, 2 ** 32),
    )
    @settings(max_examples=150, deadline=None)
    def test_terminates_intact_with_no_past_deadline(self, cell, n, loss, seed):
        protocol, kwargs = cell
        data = payload(n)[: n * 1024 - 137]  # ragged tail
        waits = []
        real_get = Store.get

        def recording_get(store, predicate=None, timeout_s=None):
            waits.append(timeout_s)
            return real_get(store, predicate, timeout_s)

        with mock.patch.object(Store, "get", recording_get):
            result = run_transfer(
                protocol, data, params=PARAMS,
                error_model=BernoulliErrors(loss, seed=seed), **kwargs,
            )
        assert result.data_intact and result.data == data
        assert result.stats.data_frames_sent >= n
        timed = [wait for wait in waits if wait is not None]
        assert timed and min(timed) > 0
