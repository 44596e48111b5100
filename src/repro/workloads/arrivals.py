"""Arrival-time generators for concurrent-service workloads.

The paper measures one transfer at a time; the service multiplexes
many, so *when* clients show up matters as much as how big their
transfers are.  Three deterministic shapes cover the load-generator's
needs: everyone at once (maximum contention, the regime admission
control exists for), uniformly staggered (steady offered load), and
Poisson (the classic open-arrival model).  All are seeded — the same
(name, count, seed) always yields the same offsets, which is what makes
service ledgers byte-reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

__all__ = [
    "ARRIVAL_GENERATORS",
    "make_arrivals",
    "poisson_arrivals",
    "simultaneous_arrivals",
    "uniform_arrivals",
]


def simultaneous_arrivals(count: int, span_s: float = 0.0,
                          seed: int = 0) -> List[float]:
    """Every client arrives at t=0 (``span_s`` and ``seed`` ignored)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return [0.0] * count


def uniform_arrivals(count: int, span_s: float = 1.0,
                     seed: int = 0) -> List[float]:
    """Arrivals evenly spread across ``[0, span_s)`` in client order."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if span_s < 0:
        raise ValueError("span_s must be >= 0")
    if count == 0:
        return []
    return [span_s * i / count for i in range(count)]


def poisson_arrivals(count: int, span_s: float = 1.0,
                     seed: int = 0) -> List[float]:
    """Poisson-process arrival times with mean rate ``count / span_s``.

    Exponential inter-arrival gaps from a seeded RNG, cumulated; the
    last arrival lands near (not exactly at) ``span_s``.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if span_s <= 0:
        raise ValueError("span_s must be > 0")
    rng = random.Random(seed)
    rate = count / span_s
    now = 0.0
    arrivals = []
    for _ in range(count):
        now += rng.expovariate(rate)
        arrivals.append(now)
    return arrivals


ARRIVAL_GENERATORS: Dict[str, Callable[..., List[float]]] = {
    "simultaneous": simultaneous_arrivals,
    "uniform": uniform_arrivals,
    "poisson": poisson_arrivals,
}


def make_arrivals(name: str, count: int, span_s: float = 1.0,
                  seed: int = 0) -> List[float]:
    """Generate ``count`` arrival offsets with the named pattern."""
    try:
        generator = ARRIVAL_GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown arrival pattern {name!r}; "
            f"choose from {', '.join(ARRIVAL_GENERATORS)}"
        ) from None
    return generator(count, span_s=span_s, seed=seed)
