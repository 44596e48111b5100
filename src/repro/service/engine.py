"""The service core: admission, scheduling, demux — substrate-free.

:class:`ServiceCore` is pure logic: it never reads a clock, opens a
socket, or yields to a simulator.  The substrate loop (DES process in
:mod:`repro.service.simservice`, UDP event loop in
:mod:`repro.service.udpservice`) owns time and I/O and drives the core
through these calls::

    outputs = core.on_frame(frame, now, client=...)  # incoming frame
    core.on_acks(stream, seqs, now, client=...)      # a run of ACKs
    outputs = core.poll(now)                         # timers + grants
    runs = core.drain_sends(now, max_frames)         # the same, by stream
    deadline = core.next_deadline(now)               # when to poll again

Every output is a ``(frame, client_key)`` pair the substrate must
transmit, and every run a stream's packets without frames
(:meth:`ServiceCore.drain_sends`); ACKs never produce either.  Client
keys are opaque to the core (DES uses host names, UDP uses socket
addresses).

Per-wakeup cost is proportional to *actual work* — expired timers plus
sendable streams — not to the active-stream count: a lazy-invalidation
deadline heap keyed by each machine's ``timer_epoch`` and an
admission-ordered ready-set of the streams with ``has_frame(now)``
carry it (docs/performance.md, "Sublinear ServiceCore scheduling").
``tests/service/test_active_walks.py`` pins that the one full walk of
``self._active`` is ``_rebuild_client_index``.  The control protocol —
one JSON ``pull`` per stream id, verdicts cached and replayed,
``credit`` and ``client`` — is specified in docs/service.md, "Control
protocol".
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import asdict, dataclass
from heapq import heapify, heappop, heappush
from typing import ClassVar, Deque, Dict, List, Optional, Tuple

from ..congestion.tuner import AutoTuner
from ..core.frames import AckFrame, ControlFrame, NakFrame
from ..core.strategies import get_strategy
from .machines import (
    BodyStream,
    TransferOutcome,
    make_sender_machine,
    packet_count,
)
from .metrics import ServiceMetrics
from .scheduler import CopyBudgetPolicy, get_policy

__all__ = ["ServiceConfig", "ServiceCore"]

#: Protocols the service can multiplex.
SERVICE_PROTOCOLS = ("blast", "sliding", "saw")

#: Congestion modes a service can run its senders under.  ``fixed``
#: reproduces the paper byte-for-byte, ``reno`` runs every transfer
#: under Reno, ``auto`` lets the tuner pick {protocol, window,
#: controller} per transfer from size and the observed loss rate.
SERVICE_CONGESTION = ("fixed", "reno", "auto")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (echoed into every report)."""

    #: The largest body a pull may ask for (admission rejects the rest).
    max_size_bytes: ClassVar[int] = 16 * 1024 * 1024
    #: The copy-budget policy's window, and the paper's C (the copy time
    #: of one data packet) that it spends per grant.
    quantum_s: ClassVar[float] = 0.01
    copy_s_per_packet: ClassVar[float] = 0.00135

    protocol: str = "blast"
    strategy: str = "selective"
    window: int = 4
    packet_bytes: int = 1024
    timeout_s: float = 0.5
    max_rounds: int = 60
    policy: str = "fifo"
    grants_per_poll: int = 8
    max_active: int = 8
    max_queue: int = 64
    seed: int = 7
    congestion: str = "fixed"

    def __post_init__(self) -> None:
        if self.protocol not in SERVICE_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {list(SERVICE_PROTOCOLS)}"
            )
        get_strategy(self.strategy)  # ValueError on an unknown name
        if self.congestion not in SERVICE_CONGESTION:
            raise ValueError(
                f"unknown congestion mode {self.congestion!r}; "
                f"choose from {list(SERVICE_CONGESTION)}"
            )
        for name in ("packet_bytes", "max_rounds", "grants_per_poll",
                     "max_active", "window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Entry:
    """One admitted transfer in the active table."""

    machine: object
    client: object
    #: Global admission sequence number — the total order every index
    #: sorts by, so indexed scheduling reproduces the insertion order
    #: of the active dict byte-for-byte.
    admit_seq: int = 0
    #: ``machine.timer_epoch`` value under which this stream's current
    #: deadline-heap entry (if any) was pushed; entries pushed under
    #: older epochs are stale and dropped lazily.
    heap_epoch: int = -1


@dataclass
class _Pending:
    """One queued (admitted-later) transfer."""

    stream_id: int
    client: object
    size: int
    submitted_s: float
    #: Tuner choice made at admission time (None outside auto mode) —
    #: the pull reply already told the client which protocol to expect,
    #: so activation must honour it even if the loss estimate has
    #: moved since.
    choice: Optional[object] = None
    #: The pull's advertised receive credit in packets (None: unbounded).
    credit: Optional[int] = None


class _ScheduleView:
    """What a policy may see of the core: ready streams + client index.

    Policies duck-type on ``ready_iter`` (see
    :mod:`repro.service.scheduler`); iterating this view touches only
    streams that can send now, in admission order, instead of the full
    active table.
    """

    __slots__ = ("_core",)

    def __init__(self, core: "ServiceCore"):
        self._core = core

    def ready_iter(self, now: float):
        """``(stream_id, entry)`` pairs with a frame ready, admission order."""
        return iter(self._core._sorted_ready().items())

    def client_count(self) -> int:
        """Distinct clients with at least one live stream."""
        return len(self._core._client_streams)

    def client_positions(self) -> Dict[object, int]:
        """Client -> rotation position (first-live-stream admission order)."""
        core = self._core
        if core._client_index_dirty:
            core._rebuild_client_index()
        return core._client_positions


class ServiceCore:
    """Multiplexes many transfers over one endpoint; substrate-free."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        if self.config.policy == "copy-budget":
            self.policy = get_policy(
                "copy-budget",
                quantum_s=self.config.quantum_s,
                copy_s_per_packet=self.config.copy_s_per_packet,
            )
        else:
            self.policy = get_policy(self.config.policy)
        self.metrics = ServiceMetrics()
        # The auto mode shares one tuner across the service's lifetime:
        # every finished transfer feeds the loss estimate the next
        # activation's {protocol, window, controller} choice reads.
        self._tuner: Optional[AutoTuner] = (
            AutoTuner(self.config.packet_bytes)
            if self.config.congestion == "auto" else None
        )
        self._active: Dict[int, _Entry] = {}
        self._pending: Deque[_Pending] = deque()
        self._responses: Dict[int, dict] = {}
        self._request_ids: Dict[int, int] = {}
        self.finished: Dict[int, TransferOutcome] = {}
        #: ACK/NAK frames dropped for naming a stream another client pulled.
        self.foreign_replies = 0
        #: ACK/NAK frames dropped for naming a stream the core does not
        #: hold (finished, never admitted, or never pulled).
        self.stray_replies = 0
        # -- scheduling indexes (see module docstring) ----------------------
        self._admit_seq = 0
        #: Lazy-invalidation deadline heap: (deadline, admit_seq,
        #: stream_id, epoch) tuples; stale entries dropped at the top.
        self._deadline_heap: List[Tuple[float, int, int, int]] = []
        #: Streams with has_frame(now) == True.  Kept insertion-ordered;
        #: re-insertions out of admission order clear the sorted flag and
        #: the next iteration re-sorts once (O(r log r), r = ready count).
        self._ready: Dict[int, _Entry] = {}
        self._ready_sorted = True
        self._ready_tail_seq = -1
        #: Client -> live-stream count; membership equals the distinct
        #: clients of the active table (rotation purges on finish, so
        #: long-running services don't accumulate dead rotation state).
        self._client_streams: Dict[object, int] = {}
        self._client_positions: Dict[object, int] = {}
        self._client_index_dirty = False
        self._view = _ScheduleView(self)

    # -- queries ------------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def finished_count(self) -> int:
        return len(self.finished)

    @property
    def idle(self) -> bool:
        """No admitted work left (finished + rejected only)."""
        return not self._active and not self._pending

    # -- frame input --------------------------------------------------------
    def on_frame(self, frame, now: float,
                 client: Optional[object] = None) -> List[Tuple[object, object]]:
        """Feed one incoming frame; returns frames to transmit."""
        if isinstance(frame, ControlFrame):
            return self._on_control(frame, now, client)
        if isinstance(frame, AckFrame):
            self.on_acks(frame.stream_id, (frame.seq,), now, client)
        elif isinstance(frame, NakFrame):
            entry = self._replying(frame.stream_id, client)
            if entry is not None:
                entry.machine.on_frame(frame, now)
                self._settle(frame.stream_id, entry, now)
        return []

    def on_acks(self, stream_id: int, seqs, now: float,
                client: Optional[object] = None) -> None:
        """Feed a run of ACKs for one stream as :meth:`on_frame` would one
        at a time, with one machine call and one bookkeeping pass."""
        entry = self._replying(stream_id, client, len(seqs))
        if entry is not None:
            entry.machine.on_acks(seqs, now)
            self._settle(stream_id, entry, now)

    def _replying(self, stream_id: int, client: Optional[object],
                  frames: int = 1) -> Optional[_Entry]:
        """The live stream ``frames`` ACK/NAKs name, unless the substrate
        names their sender (UDP) and it is not the client that pulled.
        Every reply it refuses is counted: stray or foreign."""
        entry = self._active.get(stream_id)
        if entry is not None and (client is None or client == entry.client):
            return entry
        if entry is None:
            self.stray_replies += frames
        else:
            self.foreign_replies += frames
        return None

    def _settle(self, stream_id: int, entry: _Entry, now: float) -> None:
        """Index a stream whose machine just took input."""
        if entry.machine.finished:
            self._finish(stream_id, now)
        else:
            self._reindex_deadline(stream_id, entry)
            self._refresh_ready(stream_id, entry, now)

    # -- timers + scheduling ------------------------------------------------
    def poll(self, now: float) -> List[Tuple[object, object]]:
        """Advance due timers, admit queued work, grant this quantum's
        sends: a frame per grant, in the policy's order."""
        self._expire_timers(now)
        self._admit(now)
        outputs: List[Tuple[object, object]] = []
        grants = self.policy.grants(self._view, now,
                                    self.config.grants_per_poll)
        # Read after the policy ran (iterating may re-sort it), the exact
        # ready-set (see _refresh_ready) answers has_frame() by membership.
        ready = self._ready
        for stream_id in grants:
            entry = ready.get(stream_id)
            if entry is not None:
                outputs.append((entry.machine.next_frame(now), entry.client))
                self._sent(stream_id, entry, now)
        return outputs

    def drain_sends(self, now: float, max_frames: int) -> List[tuple]:
        """What repeated ``poll`` calls would grant for a whole send batch
        (``max_frames`` rounded up to ``grants_per_poll`` quanta; no input
        arrives between them), from one policy call, as one run
        ``(client, stream_id, total, seqs, payloads, wants)`` per granted
        stream (``next_run``), in the order the policy first granted them:
        streams that share a client leave a run after the other, not
        packet by packet (``tests/service/test_engine_equivalence.py``)."""
        self._expire_timers(now)
        self._admit(now)
        quantum = self.config.grants_per_poll
        grants = self.policy.grants(self._view, now,
                                    -(-max_frames // quantum) * quantum)
        runs = []
        ready = self._ready
        for stream_id, count in Counter(grants).items():
            entry = ready.get(stream_id)
            if entry is not None:
                runs.append((entry.client, stream_id, entry.machine.total,
                             *entry.machine.next_run(now, count)))
                self._sent(stream_id, entry, now)
        return runs

    def next_deadline(self, now: float) -> Optional[float]:
        """Earliest time :meth:`poll` must run again (None = wait for I/O)."""
        if self.idle:
            return None
        candidate: Optional[float] = None
        if self._ready:
            if (isinstance(self.policy, CopyBudgetPolicy)
                    and self.policy.budget_exhausted(now)):
                candidate = self.policy.next_window_start(now)
            else:
                candidate = now
        top = self._peek_deadline()
        if candidate is None:
            return top
        if top is None:
            return candidate
        return candidate if candidate <= top else top

    # -- internals ----------------------------------------------------------
    def _on_control(self, frame: ControlFrame, now: float,
                    client: Optional[object]) -> List[Tuple[object, object]]:
        try:
            body = json.loads(frame.body.decode())
        except (ValueError, UnicodeDecodeError):
            return []  # not ours; indistinguishable from corruption
        if not isinstance(body, dict):
            return []
        if client is None:
            # The substrate has no source address (DES): the request
            # names its sender.
            name = body.get("client")
            client = name if isinstance(name, str) else None
        if body.get("op") != "pull":
            reply = {"status": "error", "reason": f"unknown op {body.get('op')!r}",
                     "stream": 0}
            return [(self._control_reply(frame.request_id, 0, reply), client)]
        stream_id = body.get("stream")
        size = body.get("size")
        credit = body.get("credit")
        # type(x) is int: a JSON true is an int to isinstance, and equals 1.
        # The upper bound is the wire's 32-bit stream field: a reply that
        # cannot be encoded would raise inside the serve loop.
        if type(stream_id) is not int or not 1 <= stream_id <= 0xFFFFFFFF:
            reply = {"status": "error", "reason": "bad stream id", "stream": 0}
            return [(self._control_reply(frame.request_id, 0, reply), client)]
        if stream_id in self._responses:
            # Duplicate pull: replay the cached response verbatim.
            return [(self._control_reply(self._request_ids[stream_id],
                                         stream_id,
                                         self._responses[stream_id]), client)]
        if (type(size) is not int or size < 0
                or size > self.config.max_size_bytes):
            reply = {"status": "error", "reason": "bad size", "stream": stream_id}
        elif "credit" in body and (type(credit) is not int or credit < 1):
            # Only ever compared against a burst length: no size is too
            # large, but a credit of nothing could never be spent.
            reply = {"status": "error", "reason": "bad credit",
                     "stream": stream_id}
        elif len(self._active) < self.config.max_active:
            choice = (self._tuner.choose(size)
                      if self._tuner is not None else None)
            self.metrics.on_submitted(stream_id, str(client), now)
            self._activate(stream_id, client, size, now, choice=choice,
                           credit=credit)
            reply = self._ok_reply(stream_id, size, choice)
        elif len(self._pending) < self.config.max_queue:
            choice = (self._tuner.choose(size)
                      if self._tuner is not None else None)
            self.metrics.on_submitted(stream_id, str(client), now)
            self._pending.append(_Pending(stream_id, client, size, now,
                                          choice=choice, credit=credit))
            self.metrics.on_queue_depth(now, len(self._pending))
            reply = self._ok_reply(stream_id, size, choice)
        else:
            self.metrics.on_rejected(stream_id, str(client), "queue full", now)
            reply = {"status": "rejected", "reason": "queue full",
                     "stream": stream_id}
        self._responses[stream_id] = reply
        self._request_ids[stream_id] = frame.request_id
        return [(self._control_reply(frame.request_id, stream_id, reply),
                 client)]

    def _ok_reply(self, stream_id: int, size: int,
                  choice: Optional[object] = None) -> dict:
        reply = {"status": "ok", "stream": stream_id, "size": size,
                 "packets": packet_count(size, self.config.packet_bytes),
                 "seed": self.config.seed}
        if choice is not None:
            # Auto mode: the client must build the receiver matching the
            # tuned protocol.  Only added under the tuner, so fixed-mode
            # control frames stay byte-identical on the wire.
            reply["protocol"] = choice.protocol
        return reply

    def _control_reply(self, request_id: int, stream_id: int,
                       body: dict) -> ControlFrame:
        return ControlFrame(
            transfer_id=stream_id,
            request_id=request_id,
            body=json.dumps(body, sort_keys=True).encode(),
            stream_id=stream_id,
        )

    def _activate(self, stream_id: int, client, size: int, now: float,
                  choice: Optional[object] = None,
                  credit: Optional[int] = None) -> None:
        body = BodyStream(self.config.seed, stream_id, size)
        protocol = self.config.protocol
        window = self.config.window
        congestion = self.config.congestion
        if choice is not None:
            protocol = choice.protocol
            window = choice.window
            congestion = choice.congestion
        machine = make_sender_machine(
            protocol, stream_id, body,
            packet_bytes=self.config.packet_bytes,
            timeout_s=self.config.timeout_s,
            max_rounds=self.config.max_rounds,
            strategy=self.config.strategy,
            window=window,
            congestion=congestion,
            credit=credit,
        )
        entry = _Entry(machine=machine, client=client,
                       admit_seq=self._admit_seq)
        self._admit_seq += 1
        self._active[stream_id] = entry
        count = self._client_streams.get(client)
        if count is None:
            self._client_streams[client] = 1
            self._client_index_dirty = True  # new rotation member
        else:
            self._client_streams[client] = count + 1
        self._push_deadline(stream_id, entry)
        self._refresh_ready(stream_id, entry, now)
        self.metrics.on_started(stream_id, now)

    def _admit(self, now: float) -> None:
        admitted = False
        while self._pending and len(self._active) < self.config.max_active:
            pending = self._pending.popleft()
            self._activate(pending.stream_id, pending.client, pending.size,
                           now, choice=pending.choice, credit=pending.credit)
            admitted = True
        if admitted:
            self.metrics.on_queue_depth(now, len(self._pending))

    def _finish(self, stream_id: int, now: float) -> None:
        entry = self._active.pop(stream_id)
        self._unready(stream_id)
        count = self._client_streams[entry.client] - 1
        if count:
            self._client_streams[entry.client] = count
        else:
            del self._client_streams[entry.client]
        # Rotation positions follow each client's earliest live stream,
        # which this finish may have been — rebuild lazily on demand.
        self._client_index_dirty = True
        outcome = entry.machine.outcome()
        self.finished[stream_id] = outcome
        if self._tuner is not None and outcome.ok:
            self._tuner.observe(outcome.data_frames_sent, outcome.retransmits)
        self.metrics.on_finished(stream_id, outcome, now)
        self._admit(now)

    # -- timer index --------------------------------------------------------
    def _expire_timers(self, now: float) -> None:
        """Run machine timers for every stream whose deadline passed.

        Equivalent to the retired full-table walk: a machine whose
        ``next_deadline()`` is None or in the future treats ``poll`` as
        a no-op, so only due streams need touching — and they are
        processed in admission order, preserving the walk's finish and
        metrics ordering byte-for-byte.
        """
        heap = self._deadline_heap
        active = self._active
        due: List[Tuple[int, int]] = []
        while heap:
            deadline, admit_seq, stream_id, epoch = heap[0]
            entry = active.get(stream_id)
            if entry is None or epoch != entry.heap_epoch:
                heappop(heap)  # stale (finished stream or moved timer)
                continue
            if deadline > now:
                break
            heappop(heap)
            entry.heap_epoch = -1   # consumed: _settle pushes a new one
            due.append((admit_seq, stream_id))
        if not due:
            return
        due.sort()
        for _seq, stream_id in due:
            entry = active.get(stream_id)
            if entry is None:
                continue
            entry.machine.poll(now)
            self._settle(stream_id, entry, now)

    def _push_deadline(self, stream_id: int, entry: _Entry) -> None:
        """(Re-)index a stream whose heap entry was consumed or never made."""
        machine = entry.machine
        entry.heap_epoch = machine.timer_epoch
        deadline = machine.next_deadline()
        if deadline is not None:
            heappush(self._deadline_heap,
                     (deadline, entry.admit_seq, stream_id, entry.heap_epoch))

    def _reindex_deadline(self, stream_id: int, entry: _Entry) -> None:
        """Refresh a stream's heap entry after its machine was touched.

        The epoch gate keeps the heap at one valid entry per stream: an
        unchanged epoch means the machine's deadline did not move, so
        the existing entry still stands.
        """
        if entry.machine.timer_epoch != entry.heap_epoch:
            self._push_deadline(stream_id, entry)
            if len(self._deadline_heap) > 2 * len(self._active) + 64:
                self._compact_deadline_heap()

    def _peek_deadline(self) -> Optional[float]:
        heap = self._deadline_heap
        active = self._active
        while heap:
            deadline, _seq, stream_id, epoch = heap[0]
            entry = active.get(stream_id)
            if entry is None or epoch != entry.heap_epoch:
                heappop(heap)
                continue
            return deadline
        return None

    def _compact_deadline_heap(self) -> None:
        """Drop stale entries in bulk once they outnumber live streams."""
        active = self._active
        kept = []
        for item in self._deadline_heap:
            entry = active.get(item[2])
            if entry is not None and item[3] == entry.heap_epoch:
                kept.append(item)
        heapify(kept)
        self._deadline_heap = kept

    # -- ready index --------------------------------------------------------
    def _refresh_ready(self, stream_id: int, entry: _Entry,
                       now: float) -> None:
        """Reconcile one stream's ready-set membership with its machine.

        Called after every engine-mediated machine transition; between
        transitions readiness can only *appear* (an outstanding packet
        coming due — captured by the deadline heap), never vanish, so
        the set is exact whenever grants are computed.
        """
        ready = self._ready
        if entry.machine.has_frame(now):
            if stream_id not in ready:
                if ready and entry.admit_seq < self._ready_tail_seq:
                    self._ready_sorted = False
                else:
                    self._ready_tail_seq = entry.admit_seq
                ready[stream_id] = entry
        else:
            self._unready(stream_id)

    def _unready(self, stream_id: int) -> None:
        """Take a stream out of the ready set (a no-op if it is not in)."""
        ready = self._ready
        if ready.pop(stream_id, None) is not None and not ready:
            self._ready_sorted = True
            self._ready_tail_seq = -1

    def _sorted_ready(self) -> Dict[int, _Entry]:
        """The ready set, re-sorted to admission order when dirty."""
        if not self._ready_sorted:
            items = sorted(self._ready.items(),
                           key=lambda kv: kv[1].admit_seq)
            self._ready = dict(items)
            self._ready_sorted = True
            self._ready_tail_seq = items[-1][1].admit_seq if items else -1
        return self._ready

    def _sent(self, stream_id: int, entry: _Entry, now: float) -> None:
        """Reindex a stream that just sent: its deadline only if the send
        moved it (``timer_epoch``), its readiness only if it has no more."""
        machine = entry.machine
        if machine.timer_epoch != entry.heap_epoch:
            self._reindex_deadline(stream_id, entry)
        if not machine.has_frame(now):
            self._unready(stream_id)

    # -- rebuild helper (the one full walk of _active) ----------------------
    def _rebuild_client_index(self) -> None:
        """Recompute rotation positions; the one sanctioned active walk.

        Positions follow each client's earliest live stream in admission
        order (the exact order the retired per-call grouping produced).
        Cost is O(active), paid only after admissions or finishes change
        membership — never per wakeup.
        """
        positions: Dict[object, int] = {}
        for entry in self._active.values():
            if entry.client not in positions:
                positions[entry.client] = len(positions)
        self._client_positions = positions
        self._client_index_dirty = False
