"""A small V-kernel: processes, message IPC, and bulk data movement.

This is the substrate the paper's §2.2 measurements run on.  Each
simulated host gets a :class:`VKernel`, which provides:

- **processes** (:class:`VProcess`) with named pre-allocated buffers
  standing in for address-space segments;
- **Send/Receive/Reply** rendezvous IPC.  ``Send`` blocks until the
  matching ``Reply`` arrives; requests are retransmitted on a timer and
  deduplicated at the receiver (replies are cached and replayed), giving
  at-least-once delivery with exactly-once visible semantics — the
  standard kernel-RPC discipline of the era;
- **MoveTo/MoveFrom** — arbitrary-size data movement between process
  address spaces, network-transparent: local moves cost one memory copy,
  remote moves run a simulated blast transfer (the paper's V interkernel
  protocol), with the kernel-level copy overhead already baked into the
  host's :class:`~repro.simnet.params.NetworkParams`.

The destination buffer must exist and be large enough *before* a move —
the paper's defining protocol precondition — and violations raise
:class:`MoveError` rather than silently allocating.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from ..core.base import BlastTransfer
from ..core.strategies import RetransmissionStrategy
from ..sim import Environment, Store
from ..simnet.host import Host
from .messages import MessageFrame, MessageKind, ProcessRef

__all__ = ["VKernel", "VProcess", "MoveError", "IpcError"]

#: A local MoveTo/MoveFrom is one processor copy at this speed.
LOCAL_MOVE_BYTES_PER_S = 4e6


class MoveError(RuntimeError):
    """MoveTo/MoveFrom precondition violation (missing/short buffer)."""


class IpcError(RuntimeError):
    """IPC misuse (unknown process, reply without receive, ...)."""


class VProcess:
    """A process under a :class:`VKernel`.

    ``buffers`` models the address-space segments other processes may
    move data into or out of; :meth:`allocate` is the moral equivalent of
    the client allocating a read buffer before asking the file server to
    fill it.
    """

    def __init__(self, kernel: "VKernel", pid: int, name: str):
        self.kernel = kernel
        self.pid = pid
        self.name = name
        self.ref = ProcessRef(kernel.kernel_id, pid)
        self.buffers: Dict[str, bytearray] = {}
        self.mailbox: Store = Store(kernel.env)

    def allocate(self, buffer: str, size: int) -> None:
        """Pre-allocate a named buffer of ``size`` bytes."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self.buffers[buffer] = bytearray(size)

    def write_buffer(self, buffer: str, data: bytes) -> None:
        """Fill a buffer locally (e.g. the file server loading a file)."""
        self.buffers[buffer] = bytearray(data)

    def read_buffer(self, buffer: str) -> bytes:
        """Read a buffer's current contents."""
        if buffer not in self.buffers:
            raise MoveError(f"{self.ref}: no buffer {buffer!r}")
        return bytes(self.buffers[buffer])


class VKernel:
    """Kernel instance for one host.

    Parameters
    ----------
    env, host:
        The simulation environment and the host this kernel runs on.
        Hosts should be built with ``NetworkParams.vkernel()`` so that
        the kernel-level copy overhead (§2.2) is charged.
    kernel_id:
        Unique id across the LAN (used in :class:`ProcessRef`).
    send_timeout_s:
        Retransmission interval for unanswered ``Send`` requests.

    Remote IPC frames cross the host's simulated wire, so the LAN's
    error model faults them like any other frame: a
    :class:`~repro.faults.scripted.ScriptedErrors` plan sees a request
    as ``control``/``send`` and a reply as ``control``/``recv``, with
    the message id as ``seq``.
    """

    def __init__(
        self,
        env: Environment,
        host: Host,
        kernel_id: int,
        send_timeout_s: float = 0.25,
    ):
        if send_timeout_s <= 0:
            raise ValueError("send_timeout_s must be > 0")
        self.env = env
        self.host = host
        self.kernel_id = kernel_id
        self.send_timeout_s = send_timeout_s
        self._processes: Dict[int, VProcess] = {}
        self._next_pid = 1
        self._next_msg_id = 1
        self._next_transfer_id = kernel_id * 1_000_000 + 1
        self._seen_requests: Dict[Tuple[ProcessRef, int], Optional[MessageFrame]] = {}
        registry = self._registry_for(env)
        if kernel_id in registry:
            raise ValueError(f"kernel id {kernel_id} already registered")
        registry[kernel_id] = self
        env.process(self._demux())

    # -- process management ------------------------------------------------
    def create_process(self, name: str) -> VProcess:
        """Register a new process and return it."""
        proc = VProcess(self, self._next_pid, name)
        self._processes[proc.pid] = proc
        self._next_pid += 1
        return proc

    def lookup(self, ref: ProcessRef) -> VProcess:
        """Resolve a local :class:`ProcessRef` (raises on remote/unknown)."""
        if ref.kernel_id != self.kernel_id or ref.pid not in self._processes:
            raise IpcError(f"{ref} is not a process of kernel {self.kernel_id}")
        return self._processes[ref.pid]

    @staticmethod
    def _registry_for(env: Environment) -> Dict[int, "VKernel"]:
        """Per-environment kernel routing table (stored on the env)."""
        registry = getattr(env, "_vkernel_registry", None)
        if registry is None:
            registry = {}
            env._vkernel_registry = registry  # type: ignore[attr-defined]
        return registry

    def _peer_kernel(self, kernel_id: int) -> "VKernel":
        registry = self._registry_for(self.env)
        if kernel_id not in registry:
            raise IpcError(f"no kernel {kernel_id} on this network")
        return registry[kernel_id]

    # -- message transport --------------------------------------------------
    def _demux(self):
        """Route incoming IPC frames to mailboxes (the kernel's interrupt
        handler), with duplicate-request suppression and reply replay."""
        while True:
            frame = yield from self.host.receive(
                predicate=lambda f: isinstance(f, MessageFrame)
                and f.dst.kernel_id == self.kernel_id
            )
            self._deliver_local(frame)

    def _deliver_local(self, frame: MessageFrame) -> None:
        proc = self._processes.get(frame.dst.pid)
        if proc is None:
            return  # message to a dead process: dropped, sender will retry
        if frame.kind is MessageKind.SEND:
            key = (frame.src, frame.msg_id)
            if key in self._seen_requests:
                cached = self._seen_requests[key]
                if cached is not None:
                    # Reply already produced: replay it to the sender.
                    self.env.process(self._transmit(cached))
                return  # request still in progress: drop the duplicate
            self._seen_requests[key] = None
        proc.mailbox.put(frame)

    def _transmit(self, frame: MessageFrame):
        """Move a frame towards its destination kernel (generator)."""
        if frame.dst.kernel_id == self.kernel_id:
            # Local IPC: no network, just a (cheap) kernel hop.
            yield self.env.timeout(0)
            self._deliver_local(frame)
            return
        peer = self._peer_kernel(frame.dst.kernel_id)
        yield from self.host.send(frame, dst=peer.host)

    # -- Send / Receive / Reply ------------------------------------------------
    def send(self, proc: VProcess, dst: ProcessRef, *payload: Any):
        """V ``Send``: deliver a request and block until the reply
        (generator; returns the reply payload tuple).

        The request is retransmitted every ``send_timeout_s`` until a
        reply arrives; the receiving kernel suppresses duplicates.
        """
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        request = MessageFrame(MessageKind.SEND, proc.ref, dst, msg_id, payload)
        while True:
            yield from self._transmit(request)
            reply = yield proc.mailbox.get(
                lambda m: m.kind is MessageKind.REPLY and m.msg_id == msg_id,
                timeout_s=self.send_timeout_s,
            )
            if reply is not None:
                return reply.payload

    def receive(self, proc: VProcess):
        """V ``Receive``: block until a request arrives (generator)."""
        frame = yield proc.mailbox.get(lambda m: m.kind is MessageKind.SEND)
        return frame

    def reply(self, proc: VProcess, request: MessageFrame, *payload: Any):
        """V ``Reply``: complete the rendezvous for ``request`` (generator)."""
        if request.kind is not MessageKind.SEND:
            raise IpcError("can only reply to SEND messages")
        response = MessageFrame(
            MessageKind.REPLY, proc.ref, request.src, request.msg_id, payload
        )
        # Cache for duplicate-request replay before transmitting.
        self._seen_requests[(request.src, request.msg_id)] = response
        yield from self._transmit(response)

    # -- MoveTo / MoveFrom --------------------------------------------------
    def move_to(
        self,
        proc: VProcess,
        dst: ProcessRef,
        buffer: str,
        data: bytes,
        strategy: Union[str, RetransmissionStrategy] = "gobackn",
        offset: int = 0,
    ):
        """V ``MoveTo``: copy ``data`` into ``dst``'s buffer (generator).

        Network-transparent: a local destination costs one memory copy; a
        remote one runs the blast interkernel protocol.  The destination
        buffer must pre-exist and have room (the paper's precondition).
        """
        if dst.kernel_id == self.kernel_id:
            target = self.lookup(dst)
            self._check_room(target, buffer, offset, len(data))
            # One processor copy, no intermediate copies (paper §2).
            yield self.env.timeout(len(data) / LOCAL_MOVE_BYTES_PER_S)
            target.buffers[buffer][offset : offset + len(data)] = data
            return None
        peer = self._peer_kernel(dst.kernel_id)
        target = peer.lookup(dst)
        self._check_room(target, buffer, offset, len(data))
        transfer = BlastTransfer(
            self.env,
            self.host,
            peer.host,
            data,
            strategy=strategy,
            transfer_id=self._allocate_transfer_id(),
        )
        done = transfer.launch()
        yield done
        result = transfer.result()
        target.buffers[buffer][offset : offset + len(data)] = result.data
        return result

    def move_from(
        self,
        proc: VProcess,
        src: ProcessRef,
        buffer: str,
        strategy: Union[str, RetransmissionStrategy] = "gobackn",
    ):
        """V ``MoveFrom``: fetch the contents of ``src``'s buffer
        (generator; returns the bytes).

        Remotely this runs the blast protocol *from* the source kernel,
        i.e. the data still flows source -> destination in blast mode.
        """
        if src.kernel_id == self.kernel_id:
            source = self.lookup(src)
            data = source.read_buffer(buffer)
            yield self.env.timeout(len(data) / LOCAL_MOVE_BYTES_PER_S)
            return data
        peer = self._peer_kernel(src.kernel_id)
        source = peer.lookup(src)
        data = source.read_buffer(buffer)
        transfer = BlastTransfer(
            self.env,
            peer.host,
            self.host,
            data,
            strategy=strategy,
            transfer_id=self._allocate_transfer_id(),
        )
        done = transfer.launch()
        yield done
        result = transfer.result()
        return result.data

    # -- helpers ------------------------------------------------------------
    def _allocate_transfer_id(self) -> int:
        transfer_id = self._next_transfer_id
        self._next_transfer_id += 1
        return transfer_id

    @staticmethod
    def _check_room(target: VProcess, buffer: str, offset: int, size: int) -> None:
        if buffer not in target.buffers:
            raise MoveError(
                f"{target.ref} has no buffer {buffer!r} — the receiver must "
                "allocate before the transfer (paper precondition)"
            )
        if offset < 0 or offset + size > len(target.buffers[buffer]):
            raise MoveError(
                f"{target.ref}:{buffer} too small: need {offset + size}, "
                f"have {len(target.buffers[buffer])}"
            )

