"""Stream placement for the sharded service cluster.

Two placement modes, one contract: every datagram of a stream must
reach exactly one shard.

``reuseport``
    All workers bind the same ``(host, port)`` with ``SO_REUSEPORT``;
    the kernel hashes each client's 4-tuple to one worker socket.  A
    stream's datagrams all come from one client socket, so the kernel's
    hash pins the whole stream to one shard — but *which* shard is a
    kernel detail, so per-shard facts are not reproducible run to run.

``hash``
    The portable, deterministic fallback: the *client* picks the shard
    with rendezvous (highest-random-weight) hashing over
    ``(seed, stream, shard)``.  The mapping depends only on those
    integers — never on interpreter hash randomisation, platform, or
    worker count history — so cluster reports are reproducible and the
    DES and UDP substrates can share one placement function.

Rendezvous hashing also gives minimal movement: growing ``n_shards``
from N to N+1 only moves the streams whose new shard *is* N+1 — every
other stream keeps its shard (tested in tests/cluster/).
"""

from __future__ import annotations

import hashlib
import socket
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "PLACEMENTS",
    "partition_streams",
    "reuseport_available",
    "servers_for_streams",
    "shard_for_stream",
]

PLACEMENTS = ("hash", "reuseport")


def _weight(seed: int, stream_id: int, shard: int) -> int:
    digest = hashlib.sha256(
        f"repro.cluster:{seed}:{stream_id}:{shard}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def shard_for_stream(stream_id: int, n_shards: int, seed: int = 0) -> int:
    """Deterministic rendezvous-hash shard for ``stream_id``.

    Ties are impossible in practice (64-bit weights) but break toward
    the lowest shard index so the function is total and stable.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    best_shard = 0
    best_weight = -1
    for shard in range(n_shards):
        weight = _weight(seed, stream_id, shard)
        if weight > best_weight:
            best_shard, best_weight = shard, weight
    return best_shard


def partition_streams(
    stream_ids: Iterable[int], n_shards: int, seed: int = 0
) -> List[Tuple[int, ...]]:
    """Group stream ids by shard; element ``k`` lists shard ``k``'s streams.

    Within a shard the ids keep their input order (ascending for the
    usual ``range`` input), which the DES cluster uses to relabel local
    stream ids back to global ones deterministically.
    """
    groups: List[List[int]] = [[] for _ in range(n_shards)]
    for stream_id in stream_ids:
        groups[shard_for_stream(stream_id, n_shards, seed)].append(stream_id)
    return [tuple(group) for group in groups]


def reuseport_available() -> bool:
    """True when this platform accepts ``SO_REUSEPORT`` on a UDP socket."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def servers_for_streams(
    stream_ids: Sequence[int],
    addresses: Sequence[Tuple[str, int]],
) -> List[Tuple[str, int]]:
    """Map each stream to its shard's address under hash placement."""
    return [
        addresses[shard_for_stream(stream_id, len(addresses))]
        for stream_id in stream_ids
    ]
