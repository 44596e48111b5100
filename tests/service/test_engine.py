"""Unit tests for ServiceCore: admission, control protocol, demux."""

import json
from heapq import heappush

import pytest

from repro.core.frames import AckFrame, ControlFrame, NakFrame
from repro.service.engine import ServiceConfig, ServiceCore


def pull_frame(stream_id, size, request_id=None, client="c"):
    body = {"client": client, "op": "pull", "size": size, "stream": stream_id}
    return ControlFrame(
        transfer_id=0,
        request_id=request_id if request_id is not None else stream_id,
        body=json.dumps(body, sort_keys=True).encode(),
    )


def reply_body(outputs):
    (frame, _client), = outputs
    return json.loads(frame.body.decode())


class TestConfig:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.protocol == "blast" and config.policy == "fifo"

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ServiceConfig(protocol="tcp")

    def test_rejects_unknown_strategy(self):
        """Regression: the bogus name was accepted, and the first pull
        raised "unknown strategy" out of on_frame, killing serve."""
        with pytest.raises(ValueError, match="unknown strategy"):
            ServiceConfig(strategy="bogus")

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_active=0)
        with pytest.raises(ValueError):
            ServiceConfig(timeout_s=0.0)

    def test_to_dict_echoes_policy(self):
        assert ServiceConfig(policy="rr").to_dict()["policy"] == "rr"


class TestControlProtocol:
    def test_pull_activates_and_replies_ok(self):
        core = ServiceCore()
        outputs = core.on_frame(pull_frame(1, 4096), 0.0, client="c")
        body = reply_body(outputs)
        assert body["status"] == "ok" and body["stream"] == 1
        assert body["packets"] == 4 and body["seed"] == core.config.seed
        assert core.active_count == 1

    def test_duplicate_pull_replays_cached_response(self):
        core = ServiceCore()
        first = reply_body(core.on_frame(pull_frame(1, 4096), 0.0, client="c"))
        again = reply_body(core.on_frame(pull_frame(1, 4096), 0.5, client="c"))
        assert first == again
        assert core.active_count == 1  # not re-activated

    def test_queue_then_reject_when_full(self):
        core = ServiceCore(ServiceConfig(max_active=1, max_queue=1))
        assert reply_body(core.on_frame(pull_frame(1, 1024), 0.0))["status"] == "ok"
        assert reply_body(core.on_frame(pull_frame(2, 1024), 0.0))["status"] == "ok"
        rejected = reply_body(core.on_frame(pull_frame(3, 1024), 0.0))
        assert rejected["status"] == "rejected"
        assert rejected["reason"] == "queue full"
        assert core.pending_count == 1
        assert len(core.metrics.rejections) == 1

    def test_rejection_is_sticky_on_duplicate(self):
        core = ServiceCore(ServiceConfig(max_active=1, max_queue=0))
        core.on_frame(pull_frame(1, 1024), 0.0)
        first = reply_body(core.on_frame(pull_frame(2, 1024), 0.0))
        again = reply_body(core.on_frame(pull_frame(2, 1024), 1.0))
        assert first["status"] == again["status"] == "rejected"
        assert len(core.metrics.rejections) == 1  # not double-counted

    def test_bad_stream_and_size_rejected(self):
        core = ServiceCore()
        assert reply_body(core.on_frame(pull_frame(0, 10), 0.0))["status"] == "error"
        too_big = core.config.max_size_bytes + 1
        assert reply_body(core.on_frame(pull_frame(1, too_big), 0.0))["status"] == "error"

    @pytest.mark.parametrize("field, reason", [
        ("stream", "bad stream id"), ("size", "bad size"),
        ("credit", "bad credit")])
    def test_a_json_boolean_is_not_an_integer(self, field, reason):
        body = {"op": "pull", "stream": 1, "size": 2048, "credit": 4,
                field: True}
        frame = ControlFrame(transfer_id=0, request_id=1,
                             body=json.dumps(body).encode())
        core = ServiceCore()
        reply = reply_body(core.on_frame(frame, 0.0, client="c"))
        assert (reply["status"], reason) == ("error", reply["reason"])
        assert core.active_count == 0
        assert not any(value is True for cached in core._responses.values()
                       for value in cached.values())

    def test_a_boolean_pull_is_not_replayed_to_an_honest_stream_one(self):
        core = ServiceCore()
        forged = ControlFrame(transfer_id=0, request_id=1, body=json.dumps(
            {"op": "pull", "stream": True, "size": True}).encode())
        core.on_frame(forged, 0.0, client="mallory")
        honest = reply_body(core.on_frame(pull_frame(1, 2048), 0.1, client="c"))
        assert honest == {"status": "ok", "stream": 1, "size": 2048,
                          "packets": 2, "seed": core.config.seed}

    @pytest.mark.parametrize("stream_id", [2 ** 32, 1099511627776])
    def test_a_stream_id_the_wire_cannot_carry_is_refused(self, stream_id):
        # The reply would not encode (32-bit stream field) and used to
        # raise inside the UDP serve loop; now it is refused uncached.
        core = ServiceCore()
        (reply, _client), = core.on_frame(pull_frame(stream_id, 10), 0.0,
                                          client="mallory")
        assert reply.stream_id == 0
        assert json.loads(reply.body.decode()) == {
            "status": "error", "reason": "bad stream id", "stream": 0}
        assert core._responses == {} and core._request_ids == {}
        assert core.active_count == core.pending_count == 0
        assert core.report_json() == ServiceCore().report_json()

    def test_the_largest_wire_stream_id_is_served(self):
        core = ServiceCore()
        body = reply_body(core.on_frame(pull_frame(0xFFFFFFFF, 10), 0.0))
        assert body["status"] == "ok" and body["stream"] == 0xFFFFFFFF

    def test_unknown_op_gets_error_reply(self):
        frame = ControlFrame(transfer_id=0, request_id=9,
                             body=json.dumps({"op": "push"}).encode())
        body = reply_body(ServiceCore().on_frame(frame, 0.0))
        assert body["status"] == "error"

    def test_malformed_body_ignored(self):
        frame = ControlFrame(transfer_id=0, request_id=9, body=b"\xff\xfe")
        assert ServiceCore().on_frame(frame, 0.0) == []


class TestSchedulingAndCompletion:
    def test_poll_grants_frames_to_client(self):
        core = ServiceCore()
        core.on_frame(pull_frame(1, 2048), 0.0, client="c")
        outputs = core.poll(0.0)
        assert outputs and all(client == "c" for _, client in outputs)
        assert all(frame.stream_id == 1 for frame, _ in outputs)

    def test_ack_completes_and_admits_from_queue(self):
        core = ServiceCore(ServiceConfig(max_active=1, max_queue=4))
        core.on_frame(pull_frame(1, 1024), 0.0, client="a")
        core.on_frame(pull_frame(2, 1024), 0.0, client="b")
        assert core.pending_count == 1
        list(core.poll(0.0))
        core.on_frame(AckFrame(transfer_id=1, seq=0, stream_id=1), 0.01)
        assert core.finished_count == 1
        assert core.active_count == 1 and core.pending_count == 0
        assert core.finished[1].ok

    @pytest.mark.parametrize("strategy", ["gobackn", "selective"])
    def test_forged_nak_leaves_the_slot_to_finish_on_the_honest_ack(
            self, strategy):
        # A NAK naming another total used to raise KeyError out of
        # drain_sends (selective) or leave the slot with no frame and no
        # deadline, never polled again (gobackn).
        core = ServiceCore(ServiceConfig(strategy=strategy))
        core.on_frame(pull_frame(1, 4096), 0.0, client="c")
        assert [frame.seq for frame, _ in core.drain_sends(0.0, 128)] == [
            0, 1, 2, 3]
        core.on_frame(NakFrame(1, 6, (6,), 8, stream_id=1), 0.01)
        assert core.drain_sends(0.02, 128) == []
        assert core.next_deadline(0.02) is not None
        core.on_frame(AckFrame(1, 3, stream_id=1), 0.03)
        assert core.idle and core.finished[1].ok

    def test_an_ack_from_another_client_is_dropped_and_counted(self):
        # One ACK for the last packet, from an address that did not
        # pull, used to finish a 64-packet blast after 8 sends: the
        # report said ok and the honest client stalled.
        core = ServiceCore()
        core.on_frame(pull_frame(1, 64 * 1024), 0.0, client="honest")
        assert len(core.drain_sends(0.0, 8)) == 8
        forged = AckFrame(1, 63, stream_id=1)
        assert core.on_frame(forged, 0.01, client="mallory") == []
        assert core.active_count == 1 and not core.finished
        core.on_acks(1, [62, 63], 0.01, client="mallory")
        core.on_frame(NakFrame(1, 0, (0,), 64, stream_id=1), 0.01,
                      client="mallory")
        assert core.foreign_replies == 4
        assert core.active_count == 1 and not core.finished
        assert len(core.drain_sends(0.02, 128)) == 56
        core.on_frame(forged, 0.03, client="honest")
        assert core.finished[1].ok
        assert core.finished[1].data_frames_sent == 64

    def test_ack_for_unknown_stream_ignored(self):
        core = ServiceCore()
        assert core.on_frame(AckFrame(transfer_id=9, seq=0, stream_id=9),
                             0.0) == []

    def test_next_deadline_none_when_idle(self):
        core = ServiceCore()
        assert core.next_deadline(0.0) is None

    def test_next_deadline_now_when_sendable(self):
        core = ServiceCore()
        core.on_frame(pull_frame(1, 2048), 0.0)
        assert core.next_deadline(0.0) == 0.0

    def test_report_includes_config_echo(self):
        core = ServiceCore(ServiceConfig(policy="rr"))
        report = json.loads(core.report_json())
        assert report["config"]["policy"] == "rr"
        assert report["schema_version"] == 1


class TestSchedulingIndexes:
    def test_rr_rotation_purges_finished_clients(self):
        core = ServiceCore(ServiceConfig(policy="rr", max_active=8))
        for stream_id, client in ((1, "a"), (2, "b"), (3, "c")):
            core.on_frame(pull_frame(stream_id, 1024, client=client), 0.0,
                          client=client)
        core.poll(0.0)
        core.on_frame(AckFrame(transfer_id=1, seq=0, stream_id=1), 0.01)
        assert core.finished_count == 1
        # Rotation state is O(live clients): the finished client is gone
        # from the count and from the rebuilt position index.
        assert "a" not in core._client_streams
        assert core._view.client_count() == 2
        assert set(core._view.client_positions()) == {"b", "c"}

    def test_rotation_index_drops_fully_drained_service(self):
        core = ServiceCore(ServiceConfig(policy="rr", max_active=4))
        core.on_frame(pull_frame(1, 1024, client="a"), 0.0, client="a")
        core.poll(0.0)
        core.on_frame(AckFrame(transfer_id=1, seq=0, stream_id=1), 0.01)
        assert core.idle
        assert core._client_streams == {}
        assert core._view.client_positions() == {}

    def test_drain_sends_advances_timers_once_per_batch(self):
        core = ServiceCore(ServiceConfig(protocol="sliding", window=2,
                                         timeout_s=0.05, grants_per_poll=1,
                                         max_active=4))
        core.on_frame(pull_frame(1, 4096), 0.0, client="a")
        assert len(core.drain_sends(0.0, 8)) == 2  # window-limited
        counts = {}
        for stream_id, entry in core._active.items():
            original = entry.machine.poll

            def wrapped(now, _original=original, _sid=stream_id):
                counts[_sid] = counts.get(_sid, 0) + 1
                return _original(now)

            entry.machine.poll = wrapped
        retx = core.drain_sends(0.1, 8)  # past the retransmit deadline
        assert len(retx) == 2
        assert counts == {1: 1}  # one timer pass for the whole batch

    def test_deadline_heap_stays_bounded(self):
        core = ServiceCore(ServiceConfig(protocol="saw", packet_bytes=64,
                                         max_active=4, grants_per_poll=8))
        core.on_frame(pull_frame(1, 64 * 64), 0.0, client="a")
        now = 0.0
        for _ in range(200):
            outputs = core.poll(now)
            now += 0.001
            for frame, _client in outputs:
                core.on_frame(AckFrame(transfer_id=1, seq=frame.seq,
                                       stream_id=1), now)
            if core.finished_count:
                break
        assert core.finished_count == 1 and core.idle
        assert not core._ready
        assert len(core._deadline_heap) <= 2 * len(core._active) + 64

    def test_ack_then_grant_indexes_at_most_one_deadline(self, monkeypatch):
        from repro.service import engine

        pushes = []

        def counting_heappush(heap, item):
            pushes.append(item)
            heappush(heap, item)

        core = ServiceCore(ServiceConfig(protocol="sliding", window=4,
                                         packet_bytes=64, timeout_s=0.5,
                                         grants_per_poll=1, max_active=4))
        core.on_frame(pull_frame(1, 64 * 64), 0.0, client="a")
        for step in range(4):           # fill the window, 1 ms apart
            assert len(core.poll(step * 0.001)) == 1
        monkeypatch.setattr(engine, "heappush", counting_heappush)
        for seq in range(40):
            now = 0.01 + seq * 0.001
            core.on_frame(AckFrame(transfer_id=1, seq=seq, stream_id=1), now)
            (frame, _client), = core.poll(now)
            assert frame.seq == seq + 4
            # The ack moves the stream's earliest deadline; the fresh
            # send behind three older packets does not.
            assert len(pushes) <= seq + 1
        assert core._deadline_heap[0][0] == core._active[1].machine.next_deadline()
