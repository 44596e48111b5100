"""Deterministic, serialisable fault-plan DSL.

A :class:`FaultPlan` is an immutable *script* of adversarial network
behaviour — drop / duplicate / reorder / delay / corrupt — that every
execution substrate in the repo can replay byte-for-byte:

- the simulated wire, V-kernel IPC messages included, through
  :class:`repro.faults.scripted.ScriptedErrors`;
- real UDP sockets, through :class:`repro.faults.socket.FaultySocket`;
- pure sequences (for property tests), through :func:`apply_to_sequence`.

Rules select frames by *kind* (data / ack / nak / control), *direction*
(relative to the instrumented party: ``send`` = outgoing, ``recv`` =
incoming), *stream index* (the per-rule count of frames that passed the
rule's static filters — explicit indices, an index window, or a period),
*data sequence number*, or a *time window* (simulated seconds on the DES
substrates, wall seconds since adapter creation on sockets).  A
``probability`` below 1.0 turns the rule stochastic; each rule draws
from its own :func:`repro.parallel.mix_seed`-derived stream, so a plan
replays identically for a given seed regardless of the substrate.

Plans round-trip through JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`) with sorted keys, so a plan's serialisation
is itself deterministic and diffable — the conformance harness keys its
golden ledger on exactly this property.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..parallel.pool import mix_seed

__all__ = [
    "ACTIONS",
    "DIRECTIONS",
    "KINDS",
    "FaultRule",
    "FaultPlan",
    "FaultDecision",
    "NO_FAULT",
    "PlanExecutor",
    "apply_to_sequence",
    "frame_stream_key",
]

#: The five scripted behaviours.
ACTIONS = ("drop", "duplicate", "reorder", "delay", "corrupt")

#: Direction is relative to the instrumented party: ``send`` matches
#: outgoing frames, ``recv`` incoming ones, ``both`` either.  On the
#: shared DES wire (which sees every frame once) the adapters map the
#: transfer's data/control frames to ``send`` and its replies to
#: ``recv`` so one plan means the same thing on every substrate.
DIRECTIONS = ("send", "recv", "both")

#: Frame-kind selectors.  ``reply`` is a convenience alias matching both
#: acknowledgement kinds; an empty ``kinds`` tuple matches everything.
KINDS = ("data", "ack", "nak", "control", "reply")


@dataclass(frozen=True)
class FaultRule:
    """One scripted behaviour plus the predicate selecting its victims.

    Parameters
    ----------
    action:
        One of :data:`ACTIONS`.
    kinds:
        Frame kinds the rule applies to (empty = any).
    direction:
        ``send`` / ``recv`` / ``both`` (see :data:`DIRECTIONS`).
    indices:
        Explicit stream indices to hit (per-rule counter of frames that
        passed the static filters).  Mutually exclusive with
        ``first``/``last``/``every`` being the only selector; combining
        is allowed but ``indices`` then further restricts the window.
    first, last:
        Inclusive index window; ``None`` means unbounded on that side.
    every, phase:
        Periodic selector: hit indices with ``index % every == phase``.
    seqs:
        Restrict to data frames with these sequence numbers.
    window_s:
        ``(t0, t1)`` time window; needs a clock-bearing adapter.
    probability:
        Stochastic gate in (0, 1]; below 1.0 the rule draws from its own
        seeded stream.
    times:
        Hard budget on how often the rule may fire (None = unlimited by
        count — the index window may still bound it).
    count:
        DUPLICATE: extra copies to inject.
    depth:
        REORDER: how many later frames overtake the held one.
    delay_s:
        DELAY: extra latency for the matched frame.
    corrupt_mask:
        CORRUPT: XOR mask applied to the first payload byte.
    silent:
        CORRUPT: if True the damage is *undetectable* (the socket
        adapter re-seals the frame CRC; the DES adapter delivers a
        damaged payload).  If False (default) the damage is the kind a
        link CRC catches, i.e. indistinguishable from a loss.
    """

    action: str
    kinds: Tuple[str, ...] = ()
    direction: str = "both"
    indices: Tuple[int, ...] = ()
    first: Optional[int] = None
    last: Optional[int] = None
    every: Optional[int] = None
    phase: int = 0
    seqs: Tuple[int, ...] = ()
    window_s: Optional[Tuple[float, float]] = None
    probability: float = 1.0
    times: Optional[int] = None
    count: int = 1
    depth: int = 1
    delay_s: float = 0.0
    corrupt_mask: int = 0xFF
    silent: bool = False

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"action must be one of {ACTIONS}, got {self.action!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        for kind in self.kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "indices", tuple(sorted(set(self.indices))))
        object.__setattr__(self, "seqs", tuple(sorted(set(self.seqs))))
        if any(i < 0 for i in self.indices):
            raise ValueError("indices must be >= 0")
        if self.first is not None and self.first < 0:
            raise ValueError("first must be >= 0")
        if self.last is not None and self.last < 0:
            raise ValueError("last must be >= 0")
        if (
            self.first is not None
            and self.last is not None
            and self.last < self.first
        ):
            raise ValueError(f"empty index window [{self.first}, {self.last}]")
        if self.every is not None and self.every < 1:
            raise ValueError("every must be >= 1")
        if self.phase < 0:
            raise ValueError("phase must be >= 0")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if not 1 <= self.corrupt_mask <= 0xFF:
            raise ValueError("corrupt_mask must be a non-zero byte value")
        if self.window_s is not None:
            t0, t1 = self.window_s
            if t1 < t0:
                raise ValueError(f"empty time window {self.window_s}")
            object.__setattr__(self, "window_s", (float(t0), float(t1)))

    # -- analysis ----------------------------------------------------------
    def max_triggers(self) -> float:
        """Upper bound on how often this rule can fire (may be ``inf``).

        The conformance harness requires every rule of a plan to be
        bounded so termination under the plan is guaranteed.
        """
        bounds: List[float] = [math.inf]
        if self.times is not None:
            bounds.append(self.times)
        if self.indices:
            bounds.append(len(self.indices))
        if self.last is not None:
            window = self.last - (self.first or 0) + 1
            if self.every is not None:
                window = math.ceil(window / self.every)
            bounds.append(window)
        return min(bounds)

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form, omitting fields left at their defaults."""
        out: Dict[str, object] = {"action": self.action}
        for spec in fields(self):
            if spec.name == "action":
                continue
            value = getattr(self, spec.name)
            default = spec.default
            if value != default:
                if isinstance(value, tuple):
                    value = list(value)
                out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultRule":
        """Inverse of :meth:`to_dict` (re-validates everything)."""
        kwargs = dict(payload)
        for name in ("kinds", "indices", "seqs", "window_s"):
            if name in kwargs and kwargs[name] is not None:
                kwargs[name] = tuple(kwargs[name])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of :class:`FaultRule` scripts."""

    name: str
    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a plan needs a name")
        object.__setattr__(self, "rules", tuple(self.rules))

    # -- analysis ----------------------------------------------------------
    def fault_budget(self) -> float:
        """Total number of faults the plan can ever inject (may be inf)."""
        return sum(rule.max_triggers() for rule in self.rules)

    @property
    def is_bounded(self) -> bool:
        """True if every rule has a finite trigger budget."""
        return self.fault_budget() != math.inf

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "rules": [rule.to_dict() for rule in self.rules],
        }
        if self.seed:
            out["seed"] = self.seed
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        rules = tuple(
            FaultRule.from_dict(r) for r in payload.get("rules", ())  # type: ignore[union-attr]
        )
        return cls(
            name=str(payload["name"]),
            rules=rules,
            seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
            description=str(payload.get("description", "")),
        )

    def to_json(self) -> str:
        """Stable JSON (sorted keys) — byte-identical for equal plans."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class FaultDecision:
    """What a :class:`PlanExecutor` decided for one frame."""

    drop: bool = False
    corrupt: bool = False
    corrupt_mask: int = 0xFF
    silent: bool = False
    duplicates: int = 0
    delay_s: float = 0.0
    reorder_depth: int = 0


#: The common case, shared to avoid one allocation per clean frame.
NO_FAULT = FaultDecision()


class PlanExecutor:
    """Stateful interpreter of a :class:`FaultPlan` over a frame stream.

    One executor per instrumented party: each rule keeps its own match
    counter and (for stochastic rules) its own seeded RNG, so the same
    plan + seed replays the same decisions on any substrate that
    presents the same frame stream.

    Parameters
    ----------
    plan:
        The plan to interpret.
    seed:
        Root seed for stochastic rules; defaults to ``plan.seed``.  Rule
        *i* draws from ``random.Random(mix_seed(seed, i))``.
    clock:
        Zero-argument callable returning the current time for
        ``window_s`` rules (simulated seconds on DES, wall seconds on
        sockets).  Without a clock, time-window rules never match.
    """

    def __init__(
        self,
        plan: FaultPlan,
        seed: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.plan = plan
        seed = plan.seed if seed is None else seed
        self.clock = clock
        self._seen: List[int] = [0] * len(plan.rules)
        self._fired: List[int] = [0] * len(plan.rules)
        self._rngs: List[Optional[random.Random]] = [
            random.Random(mix_seed(seed, i)) if rule.probability < 1.0 else None
            for i, rule in enumerate(plan.rules)
        ]

    @property
    def faults_fired(self) -> int:
        """Total rule firings so far."""
        return sum(self._fired)

    def decide(
        self,
        kind: Optional[str],
        direction: str = "both",
        seq: Optional[int] = None,
        now: Optional[float] = None,
    ) -> FaultDecision:
        """Evaluate the plan against one frame; advances rule counters.

        ``kind`` is one of :data:`KINDS` (or None for unclassifiable
        traffic, which only kind-agnostic rules can hit).  When several
        rules fire on the same frame their effects combine; ``drop``
        dominates at the adapter level.
        """
        if now is None and self.clock is not None:
            now = self.clock()
        drop = corrupt = silent = False
        corrupt_mask = 0xFF
        duplicates = 0
        delay_s = 0.0
        reorder_depth = 0
        for i, rule in enumerate(self.plan.rules):
            if not self._static_match(rule, kind, direction, seq, now):
                continue
            index = self._seen[i]
            self._seen[i] += 1
            if not self._index_match(rule, index):
                continue
            if rule.times is not None and self._fired[i] >= rule.times:
                continue
            rng = self._rngs[i]
            if rng is not None and rng.random() >= rule.probability:
                continue
            self._fired[i] += 1
            if rule.action == "drop":
                drop = True
            elif rule.action == "corrupt":
                corrupt = True
                corrupt_mask = rule.corrupt_mask
                silent = silent or rule.silent
            elif rule.action == "duplicate":
                duplicates += rule.count
            elif rule.action == "delay":
                delay_s += rule.delay_s
            elif rule.action == "reorder":
                reorder_depth = max(reorder_depth, rule.depth)
        if not (drop or corrupt or duplicates or delay_s or reorder_depth):
            return NO_FAULT
        return FaultDecision(
            drop=drop,
            corrupt=corrupt,
            corrupt_mask=corrupt_mask,
            silent=silent,
            duplicates=duplicates,
            delay_s=delay_s,
            reorder_depth=reorder_depth,
        )

    @staticmethod
    def _static_match(
        rule: FaultRule,
        kind: Optional[str],
        direction: str,
        seq: Optional[int],
        now: Optional[float],
    ) -> bool:
        if rule.kinds:
            if kind is None:
                return False
            if kind not in rule.kinds:
                if not ("reply" in rule.kinds and kind in ("ack", "nak")):
                    return False
        if rule.direction != "both" and direction != "both":
            if rule.direction != direction:
                return False
        if rule.seqs and seq not in rule.seqs:
            return False
        if rule.window_s is not None:
            if now is None:
                return False
            t0, t1 = rule.window_s
            if not t0 <= now <= t1:
                return False
        return True

    @staticmethod
    def _index_match(rule: FaultRule, index: int) -> bool:
        if rule.first is not None and index < rule.first:
            return False
        if rule.last is not None and index > rule.last:
            return False
        if rule.every is not None and index % rule.every != rule.phase % rule.every:
            return False
        if rule.indices and index not in rule.indices:
            return False
        return True


def frame_stream_key(frame: object) -> Tuple[Optional[str], str, Optional[int]]:
    """Classify a protocol frame as ``(kind, direction, seq)``.

    Direction follows the wire-level convention the adapters share: a
    transfer's payload-bearing frames (data, control) travel ``send``;
    its replies (ack, nak) travel ``recv``.  A V-kernel IPC message (it
    carries a ``msg_id``) is ``control``: a request travels ``send``, a
    reply ``recv``, and ``seq`` is the message id.  Unknown objects
    classify as ``(None, "both", None)`` so only kind-agnostic rules can
    hit them.
    """
    from ..core.frames import FrameKind

    kind_attr = getattr(frame, "kind", None)
    if isinstance(kind_attr, FrameKind):
        name = kind_attr.name.lower()
        direction = "send" if name in ("data", "control") else "recv"
        if name == "control":
            seq: Optional[int] = getattr(frame, "request_id", None)
        elif name == "nak":
            seq = getattr(frame, "first_missing", None)
        else:
            seq = getattr(frame, "seq", None)
        return name, direction, seq
    msg_id = getattr(frame, "msg_id", None)
    if msg_id is not None:
        reply = getattr(kind_attr, "value", None) == "reply"
        return "control", "recv" if reply else "send", msg_id
    return None, "both", None


def apply_to_sequence(
    plan: FaultPlan,
    items: Sequence[object],
    kind: str = "data",
    direction: str = "send",
    seed: Optional[int] = None,
    spacing_s: float = 1.0,
) -> List[object]:
    """Replay ``plan`` over a pure item sequence; returns arrival order.

    The substrate-free adapter used by property tests: item *i*
    nominally occurs at time ``i * spacing_s``.  A dropped (or
    detectably corrupted) item vanishes; a duplicated item arrives again
    immediately after itself; a reordered item with depth *d* arrives
    after the next *d* items; a delayed item re-inserts ``delay_s``
    later.  Integer items are additionally matched against rule
    ``seqs``.  Deterministic for a given ``(plan, seed)``.
    """
    if spacing_s <= 0:
        raise ValueError("spacing_s must be > 0")
    executor = PlanExecutor(plan, seed=seed)
    events: List[Tuple[float, int, object]] = []
    tiebreak = 0
    for i, item in enumerate(items):
        seq = item if isinstance(item, int) else None
        decision = executor.decide(kind, direction, seq=seq, now=i * spacing_s)
        if decision.drop or (decision.corrupt and not decision.silent):
            continue
        emit = i * spacing_s + decision.delay_s
        if decision.reorder_depth:
            emit += (decision.reorder_depth + 0.5) * spacing_s
        events.append((emit, tiebreak, item))
        tiebreak += 1
        for _ in range(decision.duplicates):
            events.append((emit, tiebreak, item))
            tiebreak += 1
    events.sort(key=lambda event: (event[0], event[1]))
    return [item for _, _, item in events]


def validate_bounded(plans: Iterable[FaultPlan]) -> None:
    """Raise if any plan could inject an unbounded number of faults."""
    for plan in plans:
        if not plan.is_bounded:
            raise ValueError(
                f"plan {plan.name!r} has an unbounded fault budget; give "
                "every rule a finite index window or a `times` budget"
            )
