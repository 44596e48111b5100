"""The grid the generator engines were recorded on before they were deleted.

``capture_engine_reference.py`` ran :func:`record` with ``PYTHONPATH`` on a
checkout of the last commit that had ``core/{stop_and_wait,sliding_window,
blast}.py`` as generator processes (PR 18); ``test_engine_reference.py``
runs it on the live tree, where the same classes are drivers over
``service/machines.py``, and compares exactly.  Only the public front door
is used, so one module serves both trees.

Left out on purpose, because the behaviour there was meant to change:

- **sliding window under loss** — the engine started its timer after the
  initial pass and retransmitted in rounds; the machine times each packet
  from the moment it left the host, as the UDP path always did.
- **stop-and-wait under duplicated or reordered replies** — the engine
  answered every stale ack with a retransmission; the machine ignores it
  (pinned in ``tests/faults/test_conformance.py``).  Bernoulli loss,
  which this grid uses, produces neither.
"""

import functools
import hashlib
import json

from repro.core import run_transfer
from repro.simnet import BernoulliErrors, NetworkParams

PARAMETER_SETS = {
    "busy_wait": NetworkParams.standalone(),
    "interrupt": NetworkParams.standalone(busy_wait=False),
    "double_buffered": NetworkParams.standalone().with_double_buffering(),
    "vkernel": NetworkParams.vkernel(),
}
#: (name, run_transfer protocol, extra kwargs) — every one checked lossy.
FAMILIES = (
    ("stop_and_wait", "stop_and_wait", {}),
    ("blast/full_no_nak", "blast", {"strategy": "full_no_nak"}),
    ("blast/full_nak", "blast", {"strategy": "full_nak"}),
    ("blast/gobackn", "blast", {"strategy": "gobackn"}),
    ("blast/selective", "blast", {"strategy": "selective"}),
)
#: packets -> body size; nine packets have the conformance matrix's
#: ragged tail.
SIZES = {1: 1024, 2: 2048, 3: 3072, 9: 8 * 1024 + 137, 16: 16 * 1024,
         64: 64 * 1024}
PACKETS = (1, 2, 9, 64)
LOSSES = (0.01, 0.05)
SEEDS = range(50)
SLIDING_PACKETS = (1, 2, 3, 9, 16, 64)
SLIDING_WINDOWS = (1, 2, 3, 4, 8, None)


@functools.lru_cache(maxsize=None)
def body(packets):
    return bytes(index % 251 for index in range(SIZES[packets]))


def row(result):
    """``repr(elapsed_s)``, every ``TransferStats`` field, ``data_intact``."""
    stats = result.stats
    return [repr(result.elapsed_s), stats.data_frames_sent,
            stats.reply_frames_sent, stats.retransmitted_data_frames,
            stats.timeouts, stats.rounds, stats.duplicates_received,
            result.data_intact]


def lossless_cells():
    """``(key, thunk)`` for every error-free cell; sliding sweeps windows."""
    for params_name, params in PARAMETER_SETS.items():
        for name, protocol, kwargs in FAMILIES:
            for packets in PACKETS:
                yield (f"{params_name}|{name}|{packets}",
                       lambda a=(protocol, body(packets), params), k=kwargs:
                       run_transfer(*a, **k))
        for packets in SLIDING_PACKETS:
            for window in SLIDING_WINDOWS:
                yield (f"{params_name}|sliding_window/w={window}|{packets}",
                       lambda a=("sliding_window", body(packets), params),
                       w=window: run_transfer(*a, window=w))


def lossy_cells():
    """``(key, thunk)`` per cell; the thunk returns one row per seed."""
    for params_name, params in PARAMETER_SETS.items():
        for name, protocol, kwargs in FAMILIES:
            for packets in PACKETS:
                for loss in LOSSES:
                    def rows(a=(protocol, body(packets), params), k=kwargs,
                             p=loss):
                        return [row(run_transfer(
                            *a, error_model=BernoulliErrors(p, seed=seed),
                            **k)) for seed in SEEDS]
                    yield f"{params_name}|{name}|{packets}|p={loss}", rows


def summarise(rows):
    """What the fixture keeps of a lossy cell: an exact digest of its rows
    and two totals that say which way a mismatch went."""
    text = json.dumps(rows, separators=(",", ":"))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "data_frames": sum(r[1] for r in rows),
            "timeouts": sum(r[4] for r in rows)}


def record():
    return {
        "lossless": {key: row(run()) for key, run in lossless_cells()},
        "lossy": {key: summarise(rows()) for key, rows in lossy_cells()},
    }
