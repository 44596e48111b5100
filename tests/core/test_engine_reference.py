"""The machine-driven transfers reproduce the deleted generator engines.

``fixtures/engine_reference.json`` was recorded from the engines of PR 18
(``capture_engine_reference.py``) on the grid in ``engine_grid.py``, which
also lists the cells left out because their behaviour was meant to
change.  Everything else must agree to the last bit of ``elapsed_s`` and
in every counter.
"""

import json
import os

import pytest

from repro.core import SlidingWindowTransfer
from repro.sim import Environment
from repro.simnet import make_lan

from . import engine_grid

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "engine_reference.json")) as _handle:
    REFERENCE = json.load(_handle)

LOSSLESS = dict(engine_grid.lossless_cells())
LOSSY = dict(engine_grid.lossy_cells())


def test_grid_and_fixture_name_the_same_cells():
    assert sorted(LOSSLESS) == sorted(REFERENCE["lossless"])
    assert sorted(LOSSY) == sorted(REFERENCE["lossy"])
    assert len(LOSSLESS) == 4 * (5 * 4 + 36) and len(LOSSY) == 160


@pytest.mark.parametrize("params", engine_grid.PARAMETER_SETS)
def test_error_free_cells_match_the_engines(params):
    moved = {key: (engine_grid.row(run()), REFERENCE["lossless"][key])
             for key, run in LOSSLESS.items() if key.startswith(params + "|")}
    assert len(moved) == 56
    moved = {key: pair for key, pair in moved.items() if pair[0] != pair[1]}
    assert not moved


@pytest.mark.parametrize("params", engine_grid.PARAMETER_SETS)
def test_sliding_timer_cannot_expire_on_a_full_pipeline(params):
    """``SlidingWindowTransfer.default_timeout``'s derivation, measured:
    over every window and size, no packet is retransmitted, the slowest
    ack is in within ``2(C + T) + 3Ca + Ta`` (and the two latencies of
    any exchange) of its packet leaving the host, and the timer is ``C``
    above that."""
    p = engine_grid.PARAMETER_SETS[params]
    bound = (2 * (p.copy_data_s + p.transmit_data_s)
             + 3 * p.copy_ack_s + p.transmit_ack_s
             + 2 * (p.propagation_delay_s + p.device_latency_s))
    slowest = 0.0
    for packets in engine_grid.SLIDING_PACKETS:
        for window in engine_grid.SLIDING_WINDOWS:
            env = Environment()
            transfer = SlidingWindowTransfer(
                env, *make_lan(env, p)[:2], engine_grid.body(packets),
                window=window)
            assert transfer.timeout_s == pytest.approx(bound + p.copy_data_s)
            machine, left_at, latencies = transfer._sender_machine, {}, []
            on_sent, on_frame = machine.on_sent, machine.on_frame
            machine.on_sent = lambda frame, now: (
                left_at.__setitem__(frame.seq, now), on_sent(frame, now))
            machine.on_frame = lambda ack, now: (
                latencies.append(now - left_at[ack.seq]), on_frame(ack, now))
            assert transfer.run().stats.retransmitted_data_frames == 0
            assert len(latencies) == packets
            slowest = max(slowest, *latencies)
    assert 0.5 * bound < slowest <= bound


@pytest.mark.parametrize("key", sorted(LOSSY))
def test_lossy_cells_match_the_engines(key):
    """50 seeds of Bernoulli loss per cell: elapsed time, every counter
    and payload integrity of each run, through one digest."""
    assert engine_grid.summarise(LOSSY[key]()) == REFERENCE["lossy"][key]
