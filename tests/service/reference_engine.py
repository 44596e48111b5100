"""Reference service engine: the pre-indexing ``ServiceCore``, verbatim.

The oracle for ``test_engine_equivalence.py``: the full-table-walk
engine and its three scheduling policies exactly as they stood before
the deadline-heap / ready-set indexing PR, moved here unchanged from
the retired ``repro.perf.legacy`` (only the import paths differ).  The
property test drives it in lockstep with the live indexed engine.

Do **not** optimize this module.  Its whole value is staying naive in
exactly the old way.
"""

from repro.core.frames import AckFrame, ControlFrame, NakFrame


class _LegacyFifoPolicy:
    """Frozen copy of the pre-indexing FifoPolicy."""

    name = "fifo"

    def grants(self, active, now, budget):
        order = []
        for stream_id, entry in active.items():
            take = min(entry.machine.frames_available(now),
                       budget - len(order))
            order.extend([stream_id] * take)
            if len(order) >= budget:
                break
        return order


class _LegacyRoundRobinPolicy:
    """Frozen copy of the pre-indexing RoundRobinPolicy."""

    name = "rr"

    def __init__(self) -> None:
        self._cursor = 0

    def grants(self, active, now, budget):
        order = []
        if not active:
            return order
        clients = {}
        for stream_id, entry in active.items():
            clients.setdefault(entry.client, []).append(stream_id)
        names = list(clients)
        self._cursor %= len(names)
        granted = {}

        def available(stream_id):
            entry = active[stream_id]
            return entry.machine.frames_available(now) - granted.get(stream_id, 0)

        idle_rotations = 0
        index = self._cursor
        while len(order) < budget and idle_rotations < len(names):
            name = names[index % len(names)]
            index += 1
            picked = False
            for stream_id in clients[name]:
                if available(stream_id) > 0:
                    order.append(stream_id)
                    granted[stream_id] = granted.get(stream_id, 0) + 1
                    picked = True
                    break
            idle_rotations = 0 if picked else idle_rotations + 1
        self._cursor = index % len(names)
        return order


class _LegacyCopyBudgetPolicy(_LegacyRoundRobinPolicy):
    """Frozen copy of the pre-indexing CopyBudgetPolicy."""

    name = "copy-budget"

    def __init__(self, quantum_s: float = 0.01,
                 copy_s_per_packet: float = 0.00135) -> None:
        super().__init__()
        if quantum_s <= 0 or copy_s_per_packet <= 0:
            raise ValueError("quantum_s and copy_s_per_packet must be > 0")
        self.quantum_s = quantum_s
        self.copy_s_per_packet = copy_s_per_packet
        self.per_quantum = max(1, int(quantum_s / copy_s_per_packet))
        self._window_index = -1
        self._used = 0

    def grants(self, active, now, budget):
        window = int(now / self.quantum_s)
        if window != self._window_index:
            self._window_index = window
            self._used = 0
        remaining = self.per_quantum - self._used
        if remaining <= 0:
            return []
        order = super().grants(active, now, min(budget, remaining))
        self._used += len(order)
        return order

    def next_window_start(self, now: float) -> float:
        return (int(now / self.quantum_s) + 1) * self.quantum_s

    def budget_exhausted(self, now: float) -> bool:
        window = int(now / self.quantum_s)
        return window == self._window_index and self._used >= self.per_quantum


class _LegacyEntry:
    """One admitted transfer in the frozen core's active table."""

    __slots__ = ("machine", "client")

    def __init__(self, machine, client):
        self.machine = machine
        self.client = client


class _LegacyPending:
    """One queued (admitted-later) transfer in the frozen core."""

    __slots__ = ("stream_id", "client", "size", "submitted_s", "choice")

    def __init__(self, stream_id, client, size, submitted_s, choice=None):
        self.stream_id = stream_id
        self.client = client
        self.size = size
        self.submitted_s = submitted_s
        self.choice = choice


class LegacyServiceCore:
    """The pre-indexing service core, frozen for A/B timing.

    Hot paths scan the entire active table: ``poll`` runs every
    machine's timer, ``next_deadline`` asks every machine for its
    deadline and every machine whether it is sendable, and the frozen
    policies above iterate the full active dict.  O(n) per wakeup,
    O(n * events) per run — the cost the indexed core removes.
    """

    def __init__(self, config=None):
        from repro.congestion.tuner import AutoTuner
        from repro.service.engine import ServiceConfig

        self.config = config or ServiceConfig()
        if self.config.policy == "copy-budget":
            self.policy = _LegacyCopyBudgetPolicy(
                quantum_s=self.config.quantum_s,
                copy_s_per_packet=self.config.copy_s_per_packet,
            )
        elif self.config.policy == "rr":
            self.policy = _LegacyRoundRobinPolicy()
        else:
            self.policy = _LegacyFifoPolicy()
        from repro.service.metrics import ServiceMetrics

        self.metrics = ServiceMetrics()
        self._tuner = (AutoTuner(self.config.packet_bytes)
                       if self.config.congestion == "auto" else None)
        self._active = {}
        self._pending = []
        self._responses = {}
        self._request_ids = {}
        self.finished = {}

    # -- queries ------------------------------------------------------------
    @property
    def active_count(self):
        return len(self._active)

    @property
    def pending_count(self):
        return len(self._pending)

    @property
    def finished_count(self):
        return len(self.finished)

    @property
    def idle(self):
        return not self._active and not self._pending

    def report_json(self):
        return self.metrics.to_json(self.config.to_dict())

    # -- frame input --------------------------------------------------------
    def on_frame(self, frame, now, client=None):
        if isinstance(frame, ControlFrame):
            return self._on_control(frame, now, client)
        if isinstance(frame, (AckFrame, NakFrame)):
            entry = self._active.get(frame.stream_id)
            if entry is None:
                return []
            entry.machine.on_frame(frame, now)
            if entry.machine.finished:
                self._finish(frame.stream_id, now)
        return []

    # -- timers + scheduling ------------------------------------------------
    def poll(self, now):
        for stream_id in list(self._active):
            entry = self._active[stream_id]
            entry.machine.poll(now)
            if entry.machine.finished:
                self._finish(stream_id, now)
        self._admit(now)
        outputs = []
        grants = self.policy.grants(self._active, now,
                                    self.config.grants_per_poll)
        for stream_id in grants:
            entry = self._active.get(stream_id)
            if entry is None or not entry.machine.has_frame(now):
                continue
            outputs.append((entry.machine.next_frame(now), entry.client))
        return outputs

    def drain_sends(self, now, max_frames):
        outputs = self.poll(now)
        while outputs and len(outputs) < max_frames:
            more = self.poll(now)
            if not more:
                break
            outputs.extend(more)
        return outputs

    def next_deadline(self, now):
        if self.idle:
            return None
        deadlines = []
        sendable = any(
            entry.machine.has_frame(now) for entry in self._active.values()
        )
        if sendable:
            if (isinstance(self.policy, _LegacyCopyBudgetPolicy)
                    and self.policy.budget_exhausted(now)):
                deadlines.append(self.policy.next_window_start(now))
            else:
                deadlines.append(now)
        for entry in self._active.values():
            deadline = entry.machine.next_deadline()
            if deadline is not None:
                deadlines.append(deadline)
        if not deadlines:
            return None
        return min(deadlines)

    # -- internals ----------------------------------------------------------
    def _on_control(self, frame, now, client):
        import json as _json

        try:
            body = _json.loads(frame.body.decode())
        except (ValueError, UnicodeDecodeError):
            return []
        if body.get("op") != "pull":
            reply = {"status": "error",
                     "reason": f"unknown op {body.get('op')!r}", "stream": 0}
            return [(self._control_reply(frame.request_id, 0, reply), client)]
        stream_id = body.get("stream")
        size = body.get("size")
        if not isinstance(stream_id, int) or stream_id < 1:
            reply = {"status": "error", "reason": "bad stream id", "stream": 0}
            return [(self._control_reply(frame.request_id, 0, reply), client)]
        if stream_id in self._responses:
            return [(self._control_reply(self._request_ids[stream_id],
                                         stream_id,
                                         self._responses[stream_id]), client)]
        if (not isinstance(size, int) or size < 0
                or size > self.config.max_size_bytes):
            reply = {"status": "error", "reason": "bad size",
                     "stream": stream_id}
        elif len(self._active) < self.config.max_active:
            choice = (self._tuner.choose(size)
                      if self._tuner is not None else None)
            self.metrics.on_submitted(stream_id, str(client), now)
            self._activate(stream_id, client, size, now, choice=choice)
            reply = self._ok_reply(stream_id, size, choice)
        elif len(self._pending) < self.config.max_queue:
            choice = (self._tuner.choose(size)
                      if self._tuner is not None else None)
            self.metrics.on_submitted(stream_id, str(client), now)
            self._pending.append(_LegacyPending(stream_id, client, size, now,
                                                choice=choice))
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

    def _ok_reply(self, stream_id, size, choice=None):
        packets = max(1, -(-size // self.config.packet_bytes))
        reply = {"status": "ok", "stream": stream_id, "size": size,
                 "packets": packets, "seed": self.config.seed}
        if choice is not None:
            reply["protocol"] = choice.protocol
        return reply

    def _control_reply(self, request_id, stream_id, body):
        import json as _json

        return ControlFrame(
            transfer_id=stream_id,
            request_id=request_id,
            body=_json.dumps(body, sort_keys=True).encode(),
            stream_id=stream_id,
        )

    def _activate(self, stream_id, client, size, now, choice=None):
        from repro.service.machines import make_sender_machine, service_payload

        payload = service_payload(self.config.seed, stream_id, size)
        protocol = self.config.protocol
        window = self.config.window
        congestion = self.config.congestion
        if choice is not None:
            protocol = choice.protocol
            window = choice.window
            congestion = choice.congestion
        machine = make_sender_machine(
            protocol, stream_id, payload,
            packet_bytes=self.config.packet_bytes,
            timeout_s=self.config.timeout_s,
            max_rounds=self.config.max_rounds,
            strategy=self.config.strategy,
            window=window,
            congestion=congestion,
        )
        self._active[stream_id] = _LegacyEntry(machine=machine, client=client)
        self.metrics.on_started(stream_id, now)

    def _admit(self, now):
        admitted = False
        while self._pending and len(self._active) < self.config.max_active:
            pending = self._pending.pop(0)
            self._activate(pending.stream_id, pending.client, pending.size,
                           now, choice=pending.choice)
            admitted = True
        if admitted:
            self.metrics.on_queue_depth(now, len(self._pending))

    def _finish(self, stream_id, now):
        entry = self._active.pop(stream_id)
        outcome = entry.machine.outcome()
        self.finished[stream_id] = outcome
        if self._tuner is not None and outcome.ok:
            self._tuner.observe(outcome.data_frames_sent, outcome.retransmits)
        self.metrics.on_finished(stream_id, outcome, now)
        self._admit(now)
