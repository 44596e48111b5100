"""End-to-end tests for the UDP file service."""

import json
import socket
import threading
import time

import pytest

from repro.core import ControlFrame, decode, encode
from repro.simnet import BernoulliErrors
from repro.udpnet import FileServiceError, UdpFileClient, UdpFileServer

CONTENT = bytes(range(256)) * 64  # 16 KB


def wait_for_file(server, name, deadline_s=5.0):
    """The server installs an upload only after its post-ack linger; a
    client's write returns at the ack, so tests poll briefly."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if name in server.files:
            return server.files[name]
        time.sleep(0.01)
    raise AssertionError(f"{name} never appeared on the server")


@pytest.fixture()
def served():
    server = UdpFileServer(files={"data.bin": CONTENT})
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = UdpFileClient(server.address)
    yield server, client, thread
    server.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()
    client.close()
    server.close()


@pytest.fixture()
def service(served):
    return served[:2]


class TestControlFrameWire:
    def test_roundtrip(self):
        frame = ControlFrame(0, request_id=7, body=b'{"op":"stat"}')
        decoded = decode(encode(frame))
        assert isinstance(decoded, ControlFrame)
        assert decoded.request_id == 7
        assert decoded.body == b'{"op":"stat"}'

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlFrame(0, request_id=-1, body=b"")


HOSTILE_BODIES = [
    # Not a JSON object: dropped like corruption, no reply.
    (b"[1,2]", None),
    (b"not json", None),
    (b"\xff\xfe", None),
    # An object the server cannot serve: an error, never cached.
    (b'{"op":"read","filename":["x"]}', "bad filename"),
    (b'{"op":"stat","filename":7}', "bad filename"),
    (b'{"op":"write","size":4}', "bad filename"),
    (b'{"op":"write","filename":"f","size":true}', "bad size"),
    (b'{"op":"write","filename":"f","size":-1}', "bad size"),
    (b'{"op":"write","filename":"f"}', "bad size"),
]


class TestHostileControlBodies:
    @pytest.mark.parametrize("body,reason", HOSTILE_BODIES)
    def test_one_datagram_cannot_kill_the_server(self, served, body, reason):
        """Regression: each of these raised out of ``handle_one`` and
        ended the ``serve_forever`` thread."""
        server, client, thread = served
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as hostile:
            hostile.bind(("127.0.0.1", 0))
            hostile.settimeout(0.3)
            hostile.sendto(encode(ControlFrame(0, request_id=9, body=body)),
                           server.address)
            if reason is None:
                with pytest.raises(socket.timeout):
                    hostile.recvfrom(65536)
            else:
                reply = decode(hostile.recvfrom(65536)[0])
                assert reply.request_id == 9
                assert json.loads(reply.body) == {"status": "error",
                                                  "reason": reason}
            assert (hostile.getsockname(), 9) not in server._responses
        time.sleep(0.2)
        assert thread.is_alive()
        assert client.stat("data.bin") == len(CONTENT)
        assert "f" not in server.files


class TestFileService:
    def test_list_and_stat(self, service):
        _, client = service
        assert client.list_files() == ["data.bin"]
        assert client.stat("data.bin") == len(CONTENT)

    def test_stat_missing_file(self, service):
        _, client = service
        with pytest.raises(FileServiceError, match="no such file"):
            client.stat("ghost.bin")

    def test_read(self, service):
        _, client = service
        assert client.read_file("data.bin") == CONTENT

    def test_read_missing_file(self, service):
        _, client = service
        with pytest.raises(FileServiceError, match="no such file"):
            client.read_file("ghost.bin")

    def test_write_then_read(self, service):
        server, client = service
        payload = b"fresh content" * 700
        assert client.write_file("new.bin", payload) == len(payload)
        assert wait_for_file(server, "new.bin") == payload
        assert client.read_file("new.bin") == payload

    def test_sequential_requests(self, service):
        server, client = service
        for index in range(5):
            name = f"f{index}.bin"
            client.write_file(name, bytes([index]) * 2048)
        assert len(client.list_files()) == 6
        for index in range(5):
            assert client.read_file(f"f{index}.bin") == bytes([index]) * 2048

    def test_large_file(self, service):
        _, client = service
        big = bytes(i % 251 for i in range(256 * 1024))
        client.write_file("big.bin", big)
        assert client.read_file("big.bin") == big

    def test_client_side_loss_recovered(self):
        """Loss injected at the client's socket: lost requests retry, lost
        blast frames retransmit — everything still completes intact."""
        server = UdpFileServer(files={"data.bin": CONTENT})
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = UdpFileClient(
            server.address, error_model=BernoulliErrors(0.05, seed=3)
        )
        try:
            assert client.read_file("data.bin") == CONTENT
            payload = b"lossy write" * 900
            client.write_file("up.bin", payload)
            assert wait_for_file(server, "up.bin") == payload
        finally:
            server.stop()
            thread.join(timeout=10)
            client.close()
            server.close()

    def test_concurrent_request_rejected_with_busy_frame(self, service):
        """A second client's request mid-bulk gets an explicit ``busy``
        error frame (regression: it used to be silently swallowed by the
        blast loops, hanging the client until its retries ran out)."""
        server, client_a = service
        # No busy retries: the first rejection surfaces immediately.
        client_b = UdpFileClient(server.address, max_retries=1,
                                 request_timeout_s=1.0)
        errors = {}

        def slow_write():
            # Big enough that the server's blast-receive phase is still
            # in flight when client B's request lands.
            try:
                client_a.write_file("slow.bin", bytes(512) * 1024)
            except FileServiceError as exc:  # pragma: no cover - diagnostic
                errors["a"] = exc

        thread = threading.Thread(target=slow_write, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 5.0
            saw_busy = False
            while time.monotonic() < deadline and not saw_busy:
                try:
                    client_b.stat("data.bin")
                except FileServiceError as exc:
                    assert "busy" in str(exc)
                    saw_busy = True
            assert saw_busy, "server never rejected the concurrent request"
            assert server.requests_rejected_busy >= 1
        finally:
            thread.join(timeout=10)
            assert not thread.is_alive()
            client_b.close()
        assert "a" not in errors
        assert wait_for_file(server, "slow.bin") == bytes(512) * 1024

    def test_busy_rejection_is_retryable(self, service):
        """A patient client rides out the busy window and then succeeds."""
        server, client_a = service
        client_b = UdpFileClient(server.address)
        thread = threading.Thread(
            target=client_a.write_file, args=("w.bin", bytes(256) * 1024),
            daemon=True,
        )
        thread.start()
        try:
            assert client_b.stat("data.bin") == len(CONTENT)
        finally:
            thread.join(timeout=10)
            assert not thread.is_alive()
            client_b.close()
        assert wait_for_file(server, "w.bin") == bytes(256) * 1024

    def test_two_clients_sequential(self, service):
        server, client_a = service
        client_b = UdpFileClient(server.address)
        try:
            client_a.write_file("a.bin", b"A" * 4096)
            client_b.write_file("b.bin", b"B" * 4096)
            assert client_b.read_file("a.bin") == b"A" * 4096
            assert client_a.read_file("b.bin") == b"B" * 4096
        finally:
            client_b.close()
