"""Unit tests for frame types."""

import functools
import importlib
import pickle
import pkgutil
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    dataclass,
    field,
    fields,
    replace,
)
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core
import repro.sim
from repro.core import AckFrame, ControlFrame, DataFrame, FrameKind, NakFrame
from repro.sim import Timeout


class TestDataFrame:
    def test_wire_bytes_defaults_to_payload_length(self):
        frame = DataFrame(transfer_id=1, seq=0, total=4, payload=b"x" * 100)
        assert frame.wire_bytes == 100

    def test_explicit_wire_bytes(self):
        frame = DataFrame(1, 0, 1, b"abc", wire_bytes=1024)
        assert frame.wire_bytes == 1024

    def test_seq_range_validation(self):
        with pytest.raises(ValueError):
            DataFrame(1, 4, 4, b"")
        with pytest.raises(ValueError):
            DataFrame(1, -1, 4, b"")
        with pytest.raises(ValueError):
            DataFrame(1, 0, 0, b"")

    def test_kind(self):
        assert DataFrame(1, 0, 1, b"").kind is FrameKind.DATA

    def test_frozen(self):
        frame = DataFrame(1, 0, 1, b"")
        with pytest.raises(AttributeError):
            frame.seq = 5  # type: ignore[misc]


class TestAckFrame:
    def test_kind_and_fields(self):
        ack = AckFrame(transfer_id=7, seq=3)
        assert ack.kind is FrameKind.ACK
        assert ack.wire_bytes == 64  # paper's ack size by default

    def test_validation(self):
        with pytest.raises(ValueError):
            AckFrame(1, seq=-1)
        with pytest.raises(ValueError):
            AckFrame(1, seq=0, wire_bytes=-1)


class TestNakFrame:
    def test_valid_nak(self):
        nak = NakFrame(1, first_missing=2, missing=(2, 5), total=8)
        assert nak.kind is FrameKind.NAK

    def test_empty_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=0, missing=(), total=4)

    def test_inconsistent_first_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=1, missing=(2, 5), total=8)

    def test_unsorted_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=5, missing=(5, 2), total=8)

    def test_duplicate_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=2, missing=(2, 2), total=8)

    def test_out_of_range_missing_rejected(self):
        with pytest.raises(ValueError):
            NakFrame(1, first_missing=2, missing=(2, 8), total=8)


# -- the hand-written constructors against the rules they replaced ---------------------
#
# Reference copies of the frame classes as they stood at PR 22: a generated
# ``__init__`` that stores every argument, then ``__post_init__`` validating
# what was stored.  The live constructors must accept and reject exactly the
# same arguments, with the same exception type and text.

@dataclass(frozen=True, slots=True)
class RefDataFrame:
    transfer_id: int
    seq: int
    total: int
    payload: bytes
    wants_reply: bool = False
    wire_bytes: int = field(default=-1)
    segment_crc: "int | None" = None
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError(f"total must be >= 1, got {self.total}")
        if not 0 <= self.seq < self.total:
            raise ValueError(f"seq {self.seq} out of range for total {self.total}")
        if self.wire_bytes == -1:
            object.__setattr__(self, "wire_bytes", len(self.payload))
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")


@dataclass(frozen=True, slots=True)
class RefAckFrame:
    transfer_id: int
    seq: int
    wire_bytes: int = 64
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError(f"seq must be >= 0, got {self.seq}")
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")


@dataclass(frozen=True, slots=True)
class RefNakFrame:
    transfer_id: int
    first_missing: int
    missing: Tuple[int, ...]
    total: int
    wire_bytes: int = 64
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not self.missing:
            raise ValueError("a NAK must name at least one missing packet")
        if tuple(sorted(set(self.missing))) != tuple(self.missing):
            raise ValueError("missing must be sorted and duplicate-free")
        if self.first_missing != self.missing[0]:
            raise ValueError("first_missing must equal missing[0]")
        if self.missing[-1] >= self.total:
            raise ValueError("missing seq out of range")
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")


@dataclass(frozen=True, slots=True)
class RefControlFrame:
    transfer_id: int
    request_id: int
    body: bytes
    wire_bytes: int = field(default=-1)
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ValueError(f"request_id must be >= 0, got {self.request_id}")
        if self.wire_bytes == -1:
            object.__setattr__(self, "wire_bytes", len(self.body))
        if self.wire_bytes < 0:
            raise ValueError(f"wire_bytes must be >= 0, got {self.wire_bytes}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")


#: Negative, zero, boundary and 2**32-sized ints, bools and bytes: what a
#: careless caller or a decoded header can put in any field.
HOSTILE = st.one_of(
    st.sampled_from([-2**32, -2, -1, 0, 1, 2, 3, 64, 2**16, 2**32 - 1, 2**32,
                     2**32 + 1]),
    st.integers(-4, 8),
    st.booleans(),
    st.binary(max_size=6),
)
HOSTILE_TUPLE = st.one_of(
    st.lists(st.integers(-2, 9), max_size=5).map(tuple),
    st.lists(st.integers(0, 9), max_size=5, unique=True).map(sorted).map(tuple),
    HOSTILE,
)


def outcome(cls, kwargs):
    """What building ``cls(**kwargs)`` does: the exception's type and
    text, or every field with its type."""
    try:
        frame = cls(**kwargs)
    except Exception as error:  # noqa: BLE001 - the comparison is the point
        return type(error), str(error)
    return [(f.name, type(getattr(frame, f.name)), getattr(frame, f.name))
            for f in fields(frame)]


def arguments(cls, draw, overrides=()):
    """Every required argument of ``cls`` and any subset of the others."""
    strategies = dict(overrides)
    kwargs = {}
    for f in fields(cls):
        if f.default is MISSING or draw(st.booleans()):
            kwargs[f.name] = draw(strategies.get(f.name, HOSTILE))
    return kwargs


@pytest.mark.parametrize("live, reference, overrides", [
    (DataFrame, RefDataFrame, {}),
    (AckFrame, RefAckFrame, {}),
    (NakFrame, RefNakFrame, {"missing": HOSTILE_TUPLE}),
    (ControlFrame, RefControlFrame, {}),
], ids=lambda value: getattr(value, "__name__", ""))
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_constructor_accepts_and_rejects_what_post_init_did(
        live, reference, overrides, data):
    kwargs = arguments(reference, data.draw, overrides)
    assert outcome(live, kwargs) == outcome(reference, kwargs)


def test_reference_and_live_classes_declare_the_same_fields():
    for live, reference in [(DataFrame, RefDataFrame), (AckFrame, RefAckFrame),
                            (NakFrame, RefNakFrame),
                            (ControlFrame, RefControlFrame)]:
        assert ([(f.name, f.default) for f in fields(live)]
                == [(f.name, f.default) for f in fields(reference)])


FRAMES = [
    DataFrame(7, 3, 10, b"hello", wants_reply=True, stream_id=9),
    AckFrame(7, seq=3, stream_id=9),
    NakFrame(7, first_missing=1, missing=(1, 4), total=10, stream_id=9),
    ControlFrame(7, request_id=2, body=b"{}", stream_id=9),
]
BY_NAME = pytest.mark.parametrize("frame", FRAMES,
                                  ids=lambda f: type(f).__name__)


class TestStillAFrozenSlotsDataclass:
    def test_wire_bytes_default_is_the_payload_or_body_length(self):
        assert DataFrame(1, 0, 1, b"abc").wire_bytes == 3
        assert DataFrame(1, 0, 1, b"abc", wire_bytes=-1).wire_bytes == 3
        assert ControlFrame(1, 0, b"abcd").wire_bytes == 4
        assert DataFrame(1, 0, 1, b"abc", False, 0).wire_bytes == 0

    @BY_NAME
    def test_replace_builds_through_the_constructor(self, frame):
        moved = replace(frame, stream_id=11)
        assert moved.stream_id == 11 and frame.stream_id == 9
        assert replace(moved, stream_id=9) == frame
        with pytest.raises(ValueError, match="stream_id must be >= 0"):
            replace(frame, stream_id=-1)

    def test_replace_keeps_a_defaulted_wire_bytes(self):
        frame = DataFrame(1, 0, 1, b"abc")
        assert replace(frame, payload=b"abcdef").wire_bytes == 3

    @BY_NAME
    def test_equal_values_are_equal_and_hash_alike(self, frame):
        twin = replace(frame)
        assert twin is not frame and twin == frame
        assert hash(twin) == hash(frame)
        assert replace(frame, transfer_id=8) != frame
        assert len({frame, twin, replace(frame, transfer_id=8)}) == 2

    def test_kinds_with_the_same_fields_are_not_equal(self):
        assert AckFrame(1, 2, 3, 4) != (1, 2, 3, 4)
        assert DataFrame(1, 0, 1, b"") != ControlFrame(1, 0, b"")

    def test_repr_names_every_field_in_order(self):
        assert repr(DataFrame(7, 3, 10, b"hi", True, stream_id=9)) == (
            "DataFrame(transfer_id=7, seq=3, total=10, payload=b'hi', "
            "wants_reply=True, wire_bytes=2, segment_crc=None, stream_id=9)")
        assert repr(AckFrame(7, 3)) == (
            "AckFrame(transfer_id=7, seq=3, wire_bytes=64, stream_id=0)")
        assert repr(NakFrame(7, 1, (1, 4), 10)) == (
            "NakFrame(transfer_id=7, first_missing=1, missing=(1, 4), "
            "total=10, wire_bytes=64, stream_id=0)")
        assert repr(ControlFrame(7, 2, b"{}")) == (
            "ControlFrame(transfer_id=7, request_id=2, body=b'{}', "
            "wire_bytes=2, stream_id=0)")

    @BY_NAME
    def test_pickle_round_trip(self, frame):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(frame, protocol)) == frame

    @BY_NAME
    def test_assignment_and_deletion_are_refused(self, frame):
        with pytest.raises(FrozenInstanceError):
            frame.stream_id = 1
        with pytest.raises(FrozenInstanceError):
            del frame.stream_id
        assert frame.stream_id == 9

    @BY_NAME
    def test_no_instance_dict(self, frame):
        assert not hasattr(frame, "__dict__")
        assert type(frame).__slots__ == tuple(f.name for f in fields(frame))
        # Nor does any other slotted class of the kernel: a subclass that
        # forgets ``__slots__`` gets a ``__dict__`` back.
        slotted, with_a_dict = _slotted_kernel_classes()
        assert type(frame) in slotted and Timeout in slotted
        assert with_a_dict == []


@functools.lru_cache(maxsize=None)
def _slotted_kernel_classes():
    """The classes defined under ``core/`` and ``sim/`` with a slotted
    class in their MRO, and those of them whose instances still get a
    ``__dict__`` without a class in the MRO listing ``"__dict__"``."""
    slotted, with_a_dict = [], []
    for package in (repro.core, repro.sim):
        for info in pkgutil.walk_packages(package.__path__,
                                          package.__name__ + "."):
            module = importlib.import_module(info.name)
            for cls in vars(module).values():
                if not (isinstance(cls, type)
                        and cls.__module__ == module.__name__):
                    continue
                declared = [vars(base)["__slots__"] for base in cls.__mro__
                            if "__slots__" in vars(base)]
                if not declared:
                    continue
                slotted.append(cls)
                if cls.__dictoffset__ and not any(
                        "__dict__" in slots for slots in declared):
                    with_a_dict.append(cls.__qualname__)
    return slotted, with_a_dict
