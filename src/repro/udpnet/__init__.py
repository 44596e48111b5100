"""Real UDP/loopback transport for the three protocol families.

The protocol logic is the substrate-free machines of
:mod:`repro.service.machines` — the same objects the concurrent service
runs under the simulator and on sockets; this package adds only the
blocking socket loop that drives them (:mod:`.endpoints`).  Loss is
injected at send time through the same error models the simulator uses.

Typical use (receiver in a thread, sender in the caller)::

    from repro.udpnet import UdpTransfer
    receiver = UdpTransfer()
    # ... start receiver.serve_one(protocol="blast") in a thread ...
    sender = UdpTransfer()
    outcome = sender.send(data, receiver.address, protocol="blast",
                          strategy="gobackn")
"""

from ..faults.socket import FaultySocket
from .endpoints import DEFAULT_PACKET_BYTES, UdpEndpoint, UdpTransferOutcome
from .fileserver import FileServiceError, UdpFileClient, UdpFileServer
from .transfer import UdpTransfer

__all__ = [
    "UdpEndpoint",
    "UdpTransfer",
    "UdpTransferOutcome",
    "DEFAULT_PACKET_BYTES",
    "FaultySocket",
    "UdpFileServer",
    "UdpFileClient",
    "FileServiceError",
]
