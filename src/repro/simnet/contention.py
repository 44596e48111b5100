"""Background network load — probing the paper's low-load caveat.

The paper's measurements were taken on an essentially idle Ethernet and
its conclusions are explicitly scoped: "Our conclusions are therefore
valid only under low load conditions.  Fortunately, such conditions are
typical of most local network based systems."

:class:`BackgroundLoad` occupies the shared wire with Poisson cross
traffic at a configurable offered load so the claim can be tested rather
than taken on faith (``benchmarks/test_ablation_contention.py``).  The
model is carrier-sense with deference (the ``Medium``'s wire resource
serialises transmissions); collision/backoff dynamics are deliberately
not modelled — under the deferential discipline they are second-order,
and the paper's own analysis has no collision term either.
"""

from __future__ import annotations

import random

from ..sim import Environment
from .medium import Medium

__all__ = ["BackgroundLoad"]


class BackgroundLoad:
    """Poisson cross-traffic occupying a medium's wire.

    Parameters
    ----------
    env, medium:
        The environment and the wire to load.
    offered_load:
        Target fraction of the wire's capacity consumed by background
        frames, in [0, 1).  The exponential inter-arrival mean is chosen
        as ``frame_time * (1 - load) / load`` of *idle* time between
        frames, which yields the requested long-run busy fraction under
        deference.  Every background frame is a full data packet.
    seed:
        RNG seed for the arrival process.
    """

    def __init__(
        self,
        env: Environment,
        medium: Medium,
        offered_load: float,
        seed: int = 0,
    ):
        if not 0.0 <= offered_load < 1.0:
            raise ValueError(f"offered_load must be in [0, 1), got {offered_load}")
        self.env = env
        self.medium = medium
        self.offered_load = offered_load
        self._rng = random.Random(seed)
        self.frames_sent = 0
        self.busy_time = 0.0
        if offered_load > 0.0:
            env.process(self._generate())

    def _generate(self):
        frame_time = self.medium.params.transmit_data_s
        mean_gap = frame_time * (1.0 - self.offered_load) / self.offered_load
        while True:
            yield self.env.timeout(self._rng.expovariate(1.0 / mean_gap))
            wait = self.medium.wire.acquire()
            if wait is not None:
                yield wait
            start = self.env.now
            yield self.env.timeout(frame_time)
            self.medium.wire.release()
            self.busy_time += self.env.now - start
            self.frames_sent += 1

    def utilization(self) -> float:
        """Fraction of elapsed simulation time the background held the wire."""
        if self.env.now == 0:
            return 0.0
        return self.busy_time / self.env.now
