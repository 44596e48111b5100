"""Stochastic loss models for frames in flight.

The paper's analysis assumes "packet transmissions are statistically
independent events which can fail with probability p_n" —
:class:`BernoulliErrors` is exactly that model.  The paper also notes that
"burst errors occasionally occur" and that most observed losses at full
speed happen *in the 3-Com interfaces*, not on the wire; we provide a
Gilbert–Elliott burst model and a silent-corruption model so those
caveats can be probed (ablations A3 and A10 in DESIGN.md).  Scripted
faults are not here: they are :class:`repro.faults.plan.FaultPlan`
rules, replayed on this wire by
:class:`repro.faults.scripted.ScriptedErrors`.

Every model is deterministic given a seed, which keeps stochastic
experiments reproducible.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

__all__ = [
    "ErrorModel",
    "PerfectChannel",
    "BernoulliErrors",
    "GilbertElliott",
    "SilentCorruption",
]


#: Fates of a frame: (lost, corrupted, extra copies, extra delay in s).
_LOST = (True, False, 0, 0.0)
_DELIVERED = (False, False, 0, 0.0)


class ErrorModel:
    """Base class: decides, per frame, whether it is lost or corrupted.

    Loss (:meth:`drops`) models everything the link CRC catches — the
    frame simply never arrives.  Silent corruption (:meth:`corrupts`)
    models damage *past* the CRC check, e.g. in the interface's DMA path:
    the frame is delivered with a damaged payload and nobody is told.
    The paper's related work (Spector) suggests "an overall software
    checksum on the entire data segment" precisely for this case; the
    blast engine's ``verify_checksum`` option implements it.

    The medium asks one question per frame, :meth:`fate`, which answers
    from the four hooks.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A loss-only model overrides none of the hooks after drops().
        cls._loss_only = all(getattr(cls, hook) is getattr(ErrorModel, hook)
                             for hook in ("corrupts", "duplicates", "delay_s"))

    def fate(self, frame: object) -> Tuple[bool, bool, int, float]:
        """``(lost, corrupted, extra copies, extra delay s)`` of this
        frame.  :meth:`drops` is asked first and the other three hooks
        only for a frame that is not lost, so random draws keep their
        order; a loss-only model is not asked them at all."""
        if self.drops(frame):
            return _LOST
        if self._loss_only:
            return _DELIVERED
        return (False, self.corrupts(frame), self.duplicates(frame),
                self.delay_s(frame))

    def drops(self, frame: object) -> bool:
        """Return True if this frame is lost."""
        raise NotImplementedError

    def corrupts(self, frame: object) -> bool:
        """Return True if this frame is delivered with damaged payload."""
        return False

    def duplicates(self, frame: object) -> int:
        """Extra copies of this frame the medium should deliver.

        The stochastic models never duplicate (the paper's channel
        cannot); scripted fault plans
        (:class:`repro.faults.scripted.ScriptedErrors`) override this.
        """
        return 0

    def delay_s(self, frame: object) -> float:
        """Extra propagation latency for this frame (default: none)."""
        return 0.0


class PerfectChannel(ErrorModel):
    """No losses — the error-free experiments of Section 2."""

    def drops(self, frame: object) -> bool:
        return False

    def fate(self, frame: object) -> Tuple[bool, bool, int, float]:
        return _DELIVERED


class BernoulliErrors(ErrorModel):
    """Independent per-frame loss with probability ``p`` (the paper's p_n).

    Parameters
    ----------
    p:
        Loss probability in [0, 1].
    seed:
        RNG seed; runs with equal seeds see identical loss patterns.
    """

    def __init__(self, p: float, seed: Optional[int] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self._rng = random.Random(seed)

    def drops(self, frame: object) -> bool:
        if self.p == 0.0:
            return False
        if self.p == 1.0:
            return True
        return self._rng.random() < self.p


class GilbertElliott(ErrorModel):
    """Two-state burst-loss model (extension beyond the paper's analysis).

    The channel alternates between a GOOD and a BAD state with given
    per-frame transition probabilities; each state has its own loss
    probability.  With ``p_bad_loss`` near 1 and sticky states this
    produces the bursty behaviour the paper mentions but does not model.
    """

    GOOD = "good"
    BAD = "bad"

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        p_good_loss: float = 0.0,
        p_bad_loss: float = 1.0,
        seed: Optional[int] = None,
    ):
        for name, value in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("p_good_loss", p_good_loss),
            ("p_bad_loss", p_bad_loss),
        ]:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.p_good_loss = p_good_loss
        self.p_bad_loss = p_bad_loss
        self._rng = random.Random(seed)
        self.state = self.GOOD

    def drops(self, frame: object) -> bool:
        # Transition first, then sample loss in the new state.
        if self.state == self.GOOD:
            if self._rng.random() < self.p_good_to_bad:
                self.state = self.BAD
        else:
            if self._rng.random() < self.p_bad_to_good:
                self.state = self.GOOD
        p_loss = self.p_good_loss if self.state == self.GOOD else self.p_bad_loss
        return self._rng.random() < p_loss

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run average loss probability of the chain."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0.0:
            # Chain never leaves its initial (GOOD) state.
            return self.p_good_loss
        frac_bad = self.p_good_to_bad / denom
        return frac_bad * self.p_bad_loss + (1.0 - frac_bad) * self.p_good_loss


class SilentCorruption(ErrorModel):
    """Deliver frames with silently damaged payloads, probability ``p``.

    Models interface/DMA damage downstream of the Ethernet CRC.  Frames
    are never *lost* by this model; a fault plan with a drop rule and a
    silent corrupt rule (:class:`repro.faults.scripted.ScriptedErrors`)
    scripts both effects.
    """

    def __init__(self, p: float, seed: Optional[int] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self._rng = random.Random(seed)

    def drops(self, frame: object) -> bool:
        return False

    def corrupts(self, frame: object) -> bool:
        if self.p == 0.0:
            return False
        return self._rng.random() < self.p
