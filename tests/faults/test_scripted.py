"""ScriptedErrors: replaying fault plans on the DES substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frames import AckFrame, DataFrame
from repro.core.runner import run_transfer
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.scripted import ScriptedErrors

from .replay import drops

DATA = bytes(range(256)) * 16  # 4 KB -> 4 packets


def _plan(*rules, name="t", seed=0):
    return FaultPlan(name=name, rules=tuple(rules), seed=seed)


def _data_frame(seq, total=4):
    return DataFrame(transfer_id=1, seq=seq, total=total, payload=b"p" * 8)


class TestModelHooks:
    def test_drop_decision_cached_for_frame(self):
        model = ScriptedErrors(
            _plan(FaultRule(action="drop", kinds=("data",), indices=(1,)))
        )
        assert not model.drops(_data_frame(0))
        assert model.drops(_data_frame(1))
        assert not model.drops(_data_frame(2))
        assert model.frames_seen == 3
        assert model.faults_fired == 1

    def test_detectable_corruption_reports_as_loss(self):
        model = ScriptedErrors(
            _plan(FaultRule(action="corrupt", kinds=("data",), indices=(0,)))
        )
        assert model.drops(_data_frame(0))  # CRC-rejected = lost
        assert not model.corrupts(_data_frame(0))

    def test_silent_corruption_reports_as_corruption(self):
        model = ScriptedErrors(
            _plan(
                FaultRule(
                    action="corrupt", kinds=("data",), indices=(0,), silent=True
                )
            )
        )
        frame = _data_frame(0)
        assert not model.drops(frame)
        assert model.corrupts(frame)

    def test_duplicates_and_delay_follow_drop_evaluation(self):
        model = ScriptedErrors(
            _plan(
                FaultRule(action="duplicate", kinds=("data",), indices=(0,), count=2),
                FaultRule(action="delay", kinds=("data",), indices=(0,), delay_s=0.5),
            )
        )
        frame = _data_frame(0)
        assert not model.drops(frame)
        assert model.duplicates(frame) == 2
        assert model.delay_s(frame) == 0.5

    def test_reorder_degrades_to_delay(self):
        model = ScriptedErrors(
            _plan(FaultRule(action="reorder", kinds=("data",), indices=(0,), depth=5)),
        )
        frame = _data_frame(0)
        assert not model.drops(frame)
        assert model.delay_s(frame) == 5 * 0.002  # 2 ms per overtaking frame

    def test_acks_classified_as_recv_stream(self):
        model = ScriptedErrors(
            _plan(FaultRule(action="drop", kinds=("reply",), direction="recv"))
        )
        assert model.drops(AckFrame(transfer_id=1, seq=0))
        assert not model.drops(_data_frame(0))


class TestDropByIndex:
    """A drop-by-index rule with no kinds and direction ``both`` counts
    every frame on the wire (``replay.drops``, the scripted loss of the
    DES tests)."""

    def test_drops_exactly_the_scripted_indices(self):
        model = drops(0, 2, 5)
        frames = [_data_frame(0), AckFrame(transfer_id=1, seq=0), None,
                  _data_frame(1), object(), _data_frame(2), None, None]
        outcomes = [model.drops(frame) for frame in frames]
        assert outcomes == [True, False, True, False, False, True, False, False]
        assert model.frames_seen == 8

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            drops(-1)

    @given(st.sets(st.integers(0, 50), max_size=10))
    @settings(max_examples=50)
    def test_drop_count_matches_script(self, indices):
        model = drops(*indices)
        dropped = sum(model.drops(None) for _ in range(51))
        assert dropped == len(indices)
        assert model.faults_fired == len(indices)


class TestOnSimulatedLan:
    def test_clean_plan_changes_nothing(self):
        baseline = run_transfer("blast", DATA, strategy="gobackn")
        faulted = run_transfer(
            "blast", DATA, strategy="gobackn",
            error_model=ScriptedErrors(_plan()),
        )
        assert faulted.data_intact
        assert faulted.stats.data_frames_sent == baseline.stats.data_frames_sent
        assert faulted.elapsed_s == baseline.elapsed_s

    def test_dropped_data_forces_retransmission(self):
        result = run_transfer(
            "blast", DATA, strategy="gobackn",
            error_model=ScriptedErrors(
                _plan(FaultRule(action="drop", kinds=("data",), indices=(1,)))
            ),
        )
        assert result.data_intact
        assert result.stats.rounds >= 2
        assert result.stats.data_frames_sent > 4

    def test_duplicated_data_is_absorbed(self):
        result = run_transfer(
            "blast", DATA, strategy="selective",
            error_model=ScriptedErrors(
                _plan(
                    FaultRule(
                        action="duplicate", kinds=("data",), indices=(0, 1), count=2
                    )
                )
            ),
        )
        assert result.data_intact
        assert result.stats.rounds == 1  # duplicates never hurt progress

    def test_delayed_reply_is_survived(self):
        result = run_transfer(
            "blast", DATA, strategy="full_nak",
            error_model=ScriptedErrors(
                _plan(
                    FaultRule(
                        action="delay", kinds=("reply",), indices=(0,), delay_s=0.05
                    )
                )
            ),
        )
        assert result.data_intact

    def test_identical_seeds_reproduce_identical_runs(self):
        plan = _plan(
            FaultRule(action="drop", kinds=("data",), probability=0.3, times=5),
            FaultRule(action="drop", kinds=("reply",), probability=0.3, times=5),
            name="sto", seed=9,
        )
        results = [
            run_transfer(
                "blast", DATA, strategy="gobackn",
                error_model=ScriptedErrors(plan, seed=21),
            )
            for _ in range(2)
        ]
        assert results[0].elapsed_s == results[1].elapsed_s
        assert (
            results[0].stats.data_frames_sent == results[1].stats.data_frames_sent
        )
        assert results[0].data_intact and results[1].data_intact
