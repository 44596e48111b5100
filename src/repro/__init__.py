"""repro — reproduction of Zwaenepoel, "Protocols for Large Data
Transfers over Local Networks" (SIGCOMM 1985).

Quickstart::

    from repro import run_transfer
    result = run_transfer("blast", data=bytes(64 * 1024))
    print(f"64 KB blast: {result.elapsed_s * 1e3:.2f} ms")

Packages
--------
``repro.sim``        discrete-event simulation kernel
``repro.simnet``     simulated LAN (medium, interfaces, hosts, errors)
``repro.core``       the protocols: stop-and-wait, sliding window, blast
``repro.analysis``   the paper's closed forms + Monte Carlo simulator
``repro.vkernel``    V-kernel-style IPC with MoveTo/MoveFrom
``repro.service``    concurrent transfer service, simulated or on real UDP sockets
``repro.workloads``  transfer-size and trace generators
``repro.parallel``   sharded experiment pool (worker-count-independent seeds)
``repro.bench``      experiment harness regenerating every table/figure
"""

from .core import (
    BlastTransfer,
    MultiBlastTransfer,
    PROTOCOLS,
    RunSummary,
    SlidingWindowTransfer,
    StopAndWaitTransfer,
    TransferResult,
    get_strategy,
    run_many,
    run_transfer,
)
from .parallel import ExperimentPool
from .simnet import BernoulliErrors, NetworkParams, TraceRecorder, make_lan

__version__ = "1.0.0"

__all__ = [
    "run_transfer",
    "run_many",
    "RunSummary",
    "TransferResult",
    "PROTOCOLS",
    "StopAndWaitTransfer",
    "SlidingWindowTransfer",
    "BlastTransfer",
    "MultiBlastTransfer",
    "get_strategy",
    "NetworkParams",
    "BernoulliErrors",
    "TraceRecorder",
    "make_lan",
    "ExperimentPool",
    "__version__",
]
