"""Every protocol message and ``MemberEvent`` is a frozen, slotted
dataclass: what the frozen dataclass promised before it was slotted,
checked against a plain frozen dataclass of the same fields."""

import copy
import dataclasses
import pickle
import typing

import pytest

from repro.swim import codec, messages
from repro.swim.events import EventKind, MemberEvent
from repro.swim.messages import (
    Ack,
    Alive,
    Compound,
    Dead,
    Nack,
    Ping,
    PingReq,
    PushPull,
    Suspect,
    UserEvent,
    ZoneClaim,
    ZoneDigest,
)

SAMPLES = [
    Ping(7, "m001", "m002"),
    PingReq(7, "m001", "m002", True),
    Ack(7, "m001"),
    Nack(7, "m001"),
    Suspect(3, "m001", "m002"),
    Alive(3, "m001", "10.0.0.1:7946", b"role=db", "z1"),
    Dead(3, "m001", "m002"),
    UserEvent("m001", 5, b"deploy"),
    PushPull("m001", (("m002", "10.0.0.2:7946", 4, 1, b"", 250),), True, False),
    ZoneDigest("z1", "m001", 60, 2, 1, 1, 9, 0xC0FFEE),
    ZoneClaim("z1", "m001", 3, 2),
    Compound((Ping(7, "m001", "m002"), Suspect(3, "m003", "m002"))),
    MemberEvent(12.5, "m001", "m002", EventKind.FAILED, 3),
]
MESSAGES = [sample for sample in SAMPLES if not isinstance(sample, MemberEvent)]


def _ids(samples):
    return [type(sample).__name__ for sample in samples]


def _fields(record):
    """The constructor's fields (``Suspect._wire`` is not one)."""
    return [field.name for field in dataclasses.fields(record) if field.init]


def _values(record):
    return [getattr(record, name) for name in _fields(record)]


def _as_dataclass(record, **options):
    """A frozen dataclass with the record's class name and fields."""
    reference = dataclasses.make_dataclass(
        type(record).__name__, _fields(record), frozen=True, **options
    )
    return reference(*_values(record))


def test_every_message_class_is_sampled():
    classes = {type(sample) for sample in SAMPLES}
    assert classes == set(typing.get_args(messages.Message)) | {MemberEvent}


@pytest.mark.parametrize("record", SAMPLES, ids=_ids(SAMPLES))
class TestRecord:
    def test_assignment_and_deletion_raise(self, record):
        name = _fields(record)[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        # A name that is no field is refused too: there is no slot for
        # it (Python 3.11's slotted frozen dataclass raises TypeError,
        # not AttributeError, on the way there).
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1
        assert getattr(record, name) is before

    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        assert list(type(record).__slots__[: len(_fields(record))]) == _fields(
            record
        )

    def test_equality_and_hash_within_the_class(self, record):
        twin = type(record)(*_values(record))
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        # The same fields and values under another class are not equal.
        stranger = _as_dataclass(record)
        assert stranger != record and record != stranger
        assert record != tuple(_values(record))

    def test_repr_is_the_dataclass_repr(self, record):
        assert repr(record) == repr(_as_dataclass(record))

    def test_pickle_and_copy_round_trip(self, record):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(record, protocol))
            assert again == record and type(again) is type(record)
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record


@pytest.mark.parametrize("message", MESSAGES, ids=_ids(MESSAGES))
def test_codec_round_trip(message):
    assert codec.decode(codec.encode(message)) == message


def test_member_event_serial_forms_round_trip():
    event = SAMPLES[-1]
    assert MemberEvent.from_record(event.as_record()) == event
    assert MemberEvent.from_tuple(event.as_tuple()) == event


def test_ack_and_nack_differ_by_class_alone():
    assert Ack(1, "a") != Nack(1, "a")
    assert Suspect(1, "m", "s") != Dead(1, "m", "s")
    assert len({Ack(1, "a"), Nack(1, "a"), Ack(1, "a")}) == 2


def test_defaults_and_the_empty_compound():
    assert PingReq(1, "t", "s") == PingReq(1, "t", "s", False)
    assert Alive(1, "m", "a") == Alive(1, "m", "a", b"", "")
    assert PushPull("s", ()) == PushPull("s", (), False, False)
    with pytest.raises(ValueError):
        Compound(())
    with pytest.raises(ValueError):
        Compound()


def test_a_decoded_suspect_keeps_its_bytes_outside_its_fields():
    raw = codec.encode(Suspect(3, "m001", "m002"))
    fresh = Suspect(3, "m001", "m002")
    assert fresh._wire is None
    decoded = codec.decode(raw)
    assert decoded._wire == raw
    assert codec.encode(decoded) is decoded._wire
    assert decoded == fresh and hash(decoded) == hash(fresh)
    assert repr(decoded) == repr(fresh)
