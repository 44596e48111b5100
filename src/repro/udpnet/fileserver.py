"""A file service over real UDP sockets: the paper's workflow on a
modern transport.

The shape is exactly the V-kernel scenario of §2 — a small control
exchange negotiates the transfer, then the file body moves as one blast:

- ``read``:  client sends a request; server responds
  ``{ok, size, transfer_id}`` and immediately blasts the file; the
  client receives it as a blast receiver on the same socket;
- ``write``: client sends ``{write, size}``; server responds
  ``{ok, transfer_id}`` and turns into a blast receiver; the client
  blasts the body.  The blast protocol's own final acknowledgement *is*
  the durable-receipt confirmation — no extra done-exchange is needed;
- ``stat`` / ``list``: pure control exchanges.

Control messages ride :class:`~repro.core.frames.ControlFrame` datagrams
with JSON bodies; requests are retried on timeout and deduplicated at
the server by (address, request_id) with cached-response replay — the
same at-least-once discipline as the simulated kernel IPC.

Known limitation (documented, matching the demo scope): a client waiting
for a control *response* discards any data frames that race past it, so
a lost response during an in-flight read is repaired by the blast
protocol's retransmission, not by control-plane replay.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..core.frames import ControlFrame
from ..core.wire import encode
from ..simnet.errors import ErrorModel
from .endpoints import DEFAULT_PACKET_BYTES
from .transfer import UdpTransfer

__all__ = ["UdpFileServer", "UdpFileClient", "FileServiceError"]

#: Session id carried by all control frames of the file service.
CONTROL_SESSION = 0


class FileServiceError(OSError):
    """A file-service request failed (server-reported or transport)."""


def _control(request_id: int, **fields) -> bytes:
    frame = ControlFrame(
        transfer_id=CONTROL_SESSION,
        request_id=request_id,
        body=json.dumps(fields).encode(),
    )
    return encode(frame)


def _send_control(endpoint: UdpTransfer, address, request_id: int,
                  **fields) -> None:
    """A control message is a burst of one: staged and flushed at once."""
    endpoint.io.send_datagram(_control(request_id, **fields), address)
    endpoint.io.flush()


def _parse(frame: ControlFrame) -> Optional[dict]:
    """The frame's JSON object; None for a body that is not one — not
    ours, and dropped like corruption."""
    try:
        body = json.loads(frame.body.decode())
    except (ValueError, UnicodeDecodeError):
        return None
    return body if isinstance(body, dict) else None


def _invalid(request: dict) -> Optional[str]:
    """Why ``request`` cannot be served whatever the store holds."""
    op = request.get("op")
    if (op in ("stat", "read", "write")
            and type(request.get("filename")) is not str):
        return "bad filename"
    if op == "write":
        size = request.get("size")
        # type(x) is int: a JSON true is an int to isinstance.
        if type(size) is not int or size < 0:
            return "bad size"
    return None


class UdpFileServer(UdpTransfer):
    """Serves files from an in-memory store over UDP.

    One socket, single-threaded: blast-sends read bodies, blast-receives
    write bodies, answers control requests in between — like the
    simulated file server, requests are served one at a time.
    """

    def __init__(
        self,
        files: Optional[Dict[str, bytes]] = None,
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        error_model: Optional[ErrorModel] = None,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        strategy: str = "gobackn",
        fault_plan=None,
        fault_seed: Optional[int] = None,
    ):
        super().__init__(
            bind=bind,
            error_model=error_model,
            packet_bytes=packet_bytes,
            fault_plan=fault_plan,
            fault_seed=fault_seed,
        )
        self.files: Dict[str, bytes] = dict(files or {})
        self.strategy = strategy
        self.requests_served = 0
        self.requests_rejected_busy = 0
        self._responses: Dict[Tuple[Tuple[str, int], int], dict] = {}
        self._next_transfer_id = 1
        self._stop = threading.Event()
        self._busy = False

    # -- serving -------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve until :meth:`stop` is called (run me in a thread)."""
        while not self._stop.is_set():
            self.handle_one(timeout_s=0.1)

    def stop(self) -> None:
        """Ask :meth:`serve_forever` to exit after its current wait."""
        self._stop.set()

    def handle_one(self, timeout_s: Optional[float] = 5.0) -> bool:
        """Handle at most one request; returns True if one was served."""
        got = self._recv_frame(timeout_s)
        if got is None:
            return False
        frame, sender = got
        if not isinstance(frame, ControlFrame):
            return False  # stray data/ack frame between requests
        key = (sender, frame.request_id)
        if key in self._responses:
            # Duplicate request: replay the cached response verbatim.
            _send_control(self, sender, frame.request_id,
                          **self._responses[key])
            return True
        request = _parse(frame)
        if request is None:
            return False
        reason = _invalid(request)
        if reason is not None:
            # Not cached: the verdict is about these bytes, not about
            # what an honest request under the same id would get.
            _send_control(self, sender, frame.request_id,
                          status="error", reason=reason)
            return True
        response = self._handle(request)
        self._responses[key] = response
        _send_control(self, sender, frame.request_id, **response)
        # Bulk phases follow the response on the same socket.  While one
        # is in flight the server is busy: control requests from *other*
        # exchanges get an immediate busy rejection (see ``_recv_frame``)
        # instead of being silently swallowed by the bulk loops.
        if response.get("status") == "ok":
            self._busy = True
            try:
                if request.get("op") == "read":
                    self.send(
                        self.files[request["filename"]],
                        sender,
                        strategy=self.strategy,
                        transfer_id=response["transfer_id"],
                    )
                elif request.get("op") == "write":
                    outcome = self.serve_one(first_timeout_s=5.0)
                    if outcome.ok:
                        self.files[request["filename"]] = outcome.data
            finally:
                self._busy = False
        self.requests_served += 1
        return True

    def _recv_frame(self, timeout_s: Optional[float]):
        """Receive a frame; while busy, reject interleaved control requests.

        The bulk phases (blast send/receive) run inline on the one
        socket, so a second client's control request would otherwise be
        consumed and dropped by the blast loops, hanging that client
        until its retries are exhausted.  Instead: duplicates of an
        already-answered request replay the cached response, and any
        *new* request is answered with an explicit (uncached, so a later
        retry can succeed) ``busy`` error frame while the bulk wait
        continues with the remaining time budget.
        """
        if not self._busy:
            return super()._recv_frame(timeout_s)
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
            got = super()._recv_frame(remaining)
            if got is None:
                return None
            frame, sender = got
            if not isinstance(frame, ControlFrame):
                return got
            key = (sender, frame.request_id)
            if key in self._responses:
                _send_control(self, sender, frame.request_id,
                              **self._responses[key])
            else:
                self.requests_rejected_busy += 1
                _send_control(self, sender, frame.request_id,
                              status="error", reason="busy")

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "stat":
            name = request["filename"]
            if name not in self.files:
                return {"status": "error", "reason": "no such file"}
            return {"status": "ok", "size": len(self.files[name])}
        if op == "list":
            return {"status": "ok", "files": sorted(self.files)}
        if op == "read":
            name = request["filename"]
            if name not in self.files:
                return {"status": "error", "reason": "no such file"}
            return {
                "status": "ok",
                "size": len(self.files[name]),
                "transfer_id": self._allocate_transfer_id(),
            }
        if op == "write":
            return {"status": "ok", "transfer_id": self._allocate_transfer_id()}
        return {"status": "error", "reason": f"unknown op {op!r}"}

    def _allocate_transfer_id(self) -> int:
        self._next_transfer_id += 1
        return self._next_transfer_id


class UdpFileClient(UdpTransfer):
    """Client for :class:`UdpFileServer` (one socket for everything)."""

    def __init__(
        self,
        server: Tuple[str, int],
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        error_model: Optional[ErrorModel] = None,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        request_timeout_s: float = 0.25,
        max_retries: int = 20,
        busy_retry_s: float = 0.05,
        fault_plan=None,
        fault_seed: Optional[int] = None,
    ):
        super().__init__(
            bind=bind,
            error_model=error_model,
            packet_bytes=packet_bytes,
            fault_plan=fault_plan,
            fault_seed=fault_seed,
        )
        self.server = server
        self.request_timeout_s = request_timeout_s
        self.max_retries = max_retries
        self.busy_retry_s = busy_retry_s
        self._next_request_id = 1

    # -- control plumbing --------------------------------------------------
    def _request(self, **fields) -> dict:
        """One control request, retried until its response arrives.

        A ``busy`` rejection (the server is mid-bulk for another
        exchange) is transient by construction — the server does not
        cache it — so it is retried with a short backoff under the same
        retry budget.  Callers only see ``busy`` once the budget is
        exhausted.
        """
        request_id = self._next_request_id
        self._next_request_id += 1
        datagram = _control(request_id, **fields)
        for attempt in range(self.max_retries):
            self.io.send_datagram(datagram, self.server)
            self.io.flush()
            response = self._await_control(request_id, self.request_timeout_s)
            if response is None:
                continue
            if (
                response.get("status") == "error"
                and response.get("reason") == "busy"
                and attempt + 1 < self.max_retries
            ):
                time.sleep(self.busy_retry_s)
                continue
            return response
        raise FileServiceError(
            f"no response to {fields.get('op')!r} after {self.max_retries} retries"
        )

    def _await_control(self, request_id: int, timeout_s: float) -> Optional[dict]:
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            got = self._recv_frame(remaining)
            if got is None:
                return None
            frame, _ = got
            if isinstance(frame, ControlFrame) and frame.request_id == request_id:
                response = _parse(frame)
                if response is not None:
                    return response

    @staticmethod
    def _check(response: dict) -> dict:
        if response.get("status") != "ok":
            raise FileServiceError(response.get("reason", "request failed"))
        return response

    # -- public API ---------------------------------------------------------
    def stat(self, filename: str) -> int:
        """Size of ``filename`` on the server."""
        return self._check(self._request(op="stat", filename=filename))["size"]

    def list_files(self) -> List[str]:
        """Names of all files on the server."""
        return self._check(self._request(op="list"))["files"]

    def read_file(self, filename: str) -> bytes:
        """Fetch a whole file (control exchange + incoming blast)."""
        response = self._check(self._request(op="read", filename=filename))
        outcome = self.serve_one(first_timeout_s=10.0)
        if not outcome.ok:
            raise FileServiceError(f"read body failed: {outcome.error}")
        if len(outcome.data) != response["size"]:
            raise FileServiceError(
                f"size mismatch: got {len(outcome.data)}, "
                f"expected {response['size']}"
            )
        return outcome.data

    def write_file(self, filename: str, data: bytes) -> int:
        """Store a whole file (control exchange + outgoing blast).

        The blast protocol's final acknowledgement is the receipt: when
        this returns, the server has the complete body.
        """
        response = self._check(self._request(op="write", filename=filename,
                                             size=len(data)))
        outcome = self.send(data, self.server,
                            transfer_id=response["transfer_id"])
        if not outcome.ok:
            raise FileServiceError(f"write body failed: {outcome.error}")
        return len(data)
