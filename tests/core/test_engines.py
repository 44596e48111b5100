"""Behavioural tests of the simulated transfers under scripted loss.

``replay.drops`` scripts exact loss patterns (frame indices in wire
order, as a one-rule fault plan), letting each recovery path be exercised precisely: lost data
packets, lost acks, lost NAKs, lost last packets.
"""

import pytest

from repro.core import run_transfer
from repro.simnet import BernoulliErrors, NetworkParams

from ..faults.replay import drops

DATA_8 = bytes(range(256)) * 32  # 8 KB -> 8 packets
PARAMS = NetworkParams.standalone()


class TestErrorFreeDelivery:
    @pytest.mark.parametrize("protocol", ["stop_and_wait", "sliding_window", "blast"])
    def test_data_delivered_intact(self, protocol):
        result = run_transfer(protocol, DATA_8, params=PARAMS)
        assert result.data_intact
        assert result.data == DATA_8
        assert result.stats.data_frames_sent == 8
        assert result.stats.retransmitted_data_frames == 0

    def test_empty_transfer(self):
        result = run_transfer("blast", b"", params=PARAMS)
        assert result.data_intact
        assert result.n_packets == 1

    def test_sub_packet_transfer(self):
        result = run_transfer("blast", b"tiny", params=PARAMS)
        assert result.data_intact
        assert result.n_packets == 1

    def test_reply_counts(self):
        saw = run_transfer("stop_and_wait", DATA_8, params=PARAMS)
        sw = run_transfer("sliding_window", DATA_8, params=PARAMS)
        blast = run_transfer("blast", DATA_8, params=PARAMS)
        assert saw.stats.reply_frames_sent == 8   # one ack per packet
        assert sw.stats.reply_frames_sent == 8
        assert blast.stats.reply_frames_sent == 1  # single ack for the blast


class TestStopAndWaitRecovery:
    def test_lost_data_packet_retransmitted(self):
        # Wire order: data0, ack0, data1, ack1, ... -> frame 4 is data2.
        result = run_transfer(
            "stop_and_wait", DATA_8, params=PARAMS,
            error_model=drops(4),
        )
        assert result.data_intact
        assert result.stats.retransmitted_data_frames == 1
        assert result.stats.timeouts == 1

    def test_lost_ack_causes_duplicate(self):
        # Frame 1 is ack0: the receiver got data0 but the sender retries.
        result = run_transfer(
            "stop_and_wait", DATA_8, params=PARAMS,
            error_model=drops(1),
        )
        assert result.data_intact
        assert result.stats.duplicates_received == 1
        assert result.stats.retransmitted_data_frames == 1


class TestBlastRecovery:
    def test_full_no_nak_lost_packet_resends_all(self):
        result = run_transfer(
            "blast", DATA_8, params=PARAMS, strategy="full_no_nak",
            error_model=drops(2),
        )
        assert result.data_intact
        assert result.stats.rounds == 2
        assert result.stats.timeouts == 1           # silence, then timer
        assert result.stats.data_frames_sent == 16  # everything twice

    def test_full_nak_lost_packet_resends_all_without_timer(self):
        result = run_transfer(
            "blast", DATA_8, params=PARAMS, strategy="full_nak",
            error_model=drops(2),
        )
        assert result.data_intact
        assert result.stats.rounds == 2
        assert result.stats.timeouts == 0           # NAK preempted the timer
        assert result.stats.data_frames_sent == 16

    def test_full_nak_lost_last_packet_falls_back_to_timer(self):
        result = run_transfer(
            "blast", DATA_8, params=PARAMS, strategy="full_nak",
            error_model=drops(7),   # the last data frame
        )
        assert result.data_intact
        assert result.stats.timeouts == 1

    def test_gobackn_resends_from_first_missing(self):
        result = run_transfer(
            "blast", DATA_8, params=PARAMS, strategy="gobackn",
            error_model=drops(5),   # data packet seq 5
        )
        assert result.data_intact
        assert result.stats.rounds == 2
        # Round 2 resends seqs 5, 6, 7 (from first missing to the end).
        assert result.stats.data_frames_sent == 8 + 3

    def test_selective_resends_only_missing(self):
        result = run_transfer(
            "blast", DATA_8, params=PARAMS, strategy="selective",
            error_model=drops(1, 5),  # seqs 1 and 5
        )
        assert result.data_intact
        assert result.stats.rounds == 2
        assert result.stats.data_frames_sent == 8 + 2

    def test_gobackn_lost_reliable_last_retries_just_it(self):
        result = run_transfer(
            "blast", DATA_8, params=PARAMS, strategy="gobackn",
            error_model=drops(7),   # the reliable last packet
        )
        assert result.data_intact
        # Only the last packet is retried; no extra round.
        assert result.stats.rounds == 1
        assert result.stats.data_frames_sent == 9
        assert result.stats.timeouts == 1

    def test_gobackn_lost_nak_retries_last_packet(self):
        # Frame 8 on the wire is the receiver's reply (after 8 data frames).
        result = run_transfer(
            "blast", DATA_8, params=PARAMS, strategy="gobackn",
            error_model=drops(8),
        )
        assert result.data_intact
        assert result.stats.timeouts == 1
        assert result.stats.duplicates_received >= 1  # re-sent last packet

    def test_selective_lost_retransmission_retried_in_round(self):
        # Lose seq 3 in round 1 and its retransmission too (wire frames:
        # 0..7 data, 8 reply, 9 = seq3 again).  The round-2 working set is
        # a single packet, which is the round's *reliable* last packet —
        # so the loss is repaired by the periodic retry inside the round.
        result = run_transfer(
            "blast", DATA_8, params=PARAMS, strategy="selective",
            error_model=drops(3, 9),
        )
        assert result.data_intact
        assert result.stats.rounds == 2
        assert result.stats.timeouts == 1
        assert result.stats.data_frames_sent == 8 + 2


class TestSlidingWindowRecovery:
    def test_lost_data_packet_selectively_retransmitted(self):
        # Wire order for SW: data0..data7 interleaved with acks; the first
        # frame (data0) is the easiest to script.
        result = run_transfer(
            "sliding_window", DATA_8, params=PARAMS,
            error_model=drops(0),
        )
        assert result.data_intact
        assert result.stats.retransmitted_data_frames == 1
        # The packet's own timer expires while the sender is still busy
        # with the initial pass, so no *wait* times out: the resend is
        # the second "round" of a per-packet-timer machine.
        assert result.stats.rounds == 2

    def test_lost_ack_causes_duplicate_data(self):
        # Wire order: data0, data1, ack0, ... — the receiver's ack defers
        # behind the sender's next data transmission (carrier sense), so
        # the first ack is wire frame 2.
        result = run_transfer(
            "sliding_window", DATA_8, params=PARAMS,
            error_model=drops(2),
        )
        assert result.data_intact
        assert result.stats.duplicates_received == 1
        assert result.stats.retransmitted_data_frames == 1


class TestHeavyLoss:
    @pytest.mark.parametrize("protocol,kwargs", [
        ("stop_and_wait", {}),
        ("sliding_window", {}),
        ("blast", {"strategy": "full_no_nak"}),
        ("blast", {"strategy": "full_nak"}),
        ("blast", {"strategy": "gobackn"}),
        ("blast", {"strategy": "selective"}),
        ("multiblast", {"blast_packets": 4, "strategy": "gobackn"}),
    ])
    def test_ten_percent_loss_still_delivers(self, protocol, kwargs):
        result = run_transfer(
            protocol, DATA_8, params=PARAMS,
            error_model=BernoulliErrors(0.10, seed=1234),
            **kwargs,
        )
        assert result.data_intact
        assert result.data == DATA_8


class TestMultiblast:
    def test_chunking(self):
        data = bytes(20 * 1024)
        result = run_transfer("multiblast", data, params=PARAMS, blast_packets=8)
        assert result.data_intact
        assert result.n_packets == 20
        assert result.stats.rounds == 3  # chunks of 8, 8, 4

    def test_single_chunk_equivalent_to_blast(self):
        blast = run_transfer("blast", DATA_8, params=PARAMS, strategy="gobackn")
        multi = run_transfer("multiblast", DATA_8, params=PARAMS,
                             blast_packets=64, strategy="gobackn")
        assert multi.data_intact
        assert multi.elapsed_s == pytest.approx(blast.elapsed_s, rel=1e-9)

    def test_invalid_blast_packets(self):
        with pytest.raises(ValueError):
            run_transfer("multiblast", DATA_8, params=PARAMS, blast_packets=0)

    def test_loss_in_one_chunk_does_not_disturb_others(self):
        # Chunk 1 (frames 0-3 + reply), drop its seq 2 (wire frame 2).
        result = run_transfer(
            "multiblast", bytes(16 * 1024), params=PARAMS, blast_packets=4,
            strategy="selective", error_model=drops(2),
        )
        assert result.data_intact
        assert result.stats.data_frames_sent == 16 + 1


class TestRunnerValidation:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_transfer("carrier_pigeon", b"x")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_transfer("blast", b"x", strategy="hope")

    def test_result_metadata(self):
        result = run_transfer("blast", DATA_8, params=PARAMS, strategy="selective")
        assert result.protocol == "blast"
        assert result.strategy == "selective"
        assert result.payload_bytes == len(DATA_8)
        assert result.throughput_bps > 0
