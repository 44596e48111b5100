"""Real UDP/loopback implementations of the three protocol families.

The protocol logic (frames, wire format, tracker, strategies) is shared
with the simulator; only the socket I/O loop is specific to this
package.  Loss is injected at send time through the same error models
the simulator uses.

Typical use (receiver in a thread, sender in the caller)::

    from repro.udpnet import BlastReceiver, BlastSender
    receiver = BlastReceiver()
    # ... start receiver.serve_one() in a thread ...
    sender = BlastSender()
    outcome = sender.send(data, receiver.address, strategy="gobackn")
"""

from ..faults.socket import FaultySocket
from .blast import BlastReceiver, BlastSender
from .endpoints import DEFAULT_PACKET_BYTES, UdpEndpoint, UdpTransferOutcome
from .fileserver import FileServiceError, UdpFileClient, UdpFileServer
from .saw import PerPacketAckReceiver, SawSender
from .sliding import SlidingWindowSender

__all__ = [
    "UdpEndpoint",
    "UdpTransferOutcome",
    "DEFAULT_PACKET_BYTES",
    "FaultySocket",
    "SawSender",
    "SlidingWindowSender",
    "PerPacketAckReceiver",
    "BlastSender",
    "BlastReceiver",
    "UdpFileServer",
    "UdpFileClient",
    "FileServiceError",
]
