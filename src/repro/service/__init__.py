"""Concurrent transfer service: many transfers, one endpoint.

The paper's protocols move one large transfer between two hosts; this
package turns them into a *service* — many simultaneous transfers
multiplexed over a single UDP endpoint or, via the exact same scheduler
core, over the simulated LAN.  ``docs/service.md`` describes it; its
"Layers" table maps the modules.
"""

from .engine import ServiceConfig, ServiceCore
from .machines import (
    BlastSenderMachine,
    BodyStream,
    ReceiverMachine,
    TransferOutcome,
    WindowSenderMachine,
    make_sender_machine,
    receiver_for,
    service_payload,
)
from .metrics import ServiceMetrics, percentile
from .scheduler import (
    POLICY_REGISTRY,
    CopyBudgetPolicy,
    FifoPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    get_policy,
    policy_names,
)
from .loadgen import (
    ScalingSweepResult,
    UdpLoadgenResult,
    run_des_loadgen,
    run_scaling_sweep,
    run_udp_loadgen,
)
from .clientpump import UdpClientPump
from .pullclient import PullMachine, UdpPullResult
from .simservice import DesServiceResult, run_des_service
from .udpservice import UdpTransferService

__all__ = [
    "ServiceConfig",
    "ServiceCore",
    "ServiceMetrics",
    "percentile",
    "BlastSenderMachine",
    "BodyStream",
    "WindowSenderMachine",
    "ReceiverMachine",
    "TransferOutcome",
    "make_sender_machine",
    "receiver_for",
    "service_payload",
    "SchedulingPolicy",
    "FifoPolicy",
    "RoundRobinPolicy",
    "CopyBudgetPolicy",
    "POLICY_REGISTRY",
    "get_policy",
    "policy_names",
    "DesServiceResult",
    "run_des_service",
    "UdpTransferService",
    "UdpClientPump",
    "PullMachine",
    "UdpPullResult",
    "ScalingSweepResult",
    "UdpLoadgenResult",
    "run_des_loadgen",
    "run_scaling_sweep",
    "run_udp_loadgen",
]
