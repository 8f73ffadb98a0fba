"""Tests for message helpers."""

import pytest

from repro.swim.messages import (
    Ack,
    Alive,
    Compound,
    Dead,
    Ping,
    PingReq,
    PushPull,
    Suspect,
    flatten,
    gossip_subject,
    is_gossip,
    primary_kind,
)
from repro.swim.state import MemberState


class TestClassification:
    def test_gossip_messages(self):
        assert is_gossip(Suspect(1, "m", "s"))
        assert is_gossip(Alive(1, "m", "a"))
        assert is_gossip(Dead(1, "m", "s"))

    def test_non_gossip_messages(self):
        assert not is_gossip(Ping(1, "t", "s"))
        assert not is_gossip(Ack(1, "s"))
        assert not is_gossip(PushPull("s", ()))

    def test_gossip_subject(self):
        assert gossip_subject(Suspect(1, "m", "s")) == "m"
        assert gossip_subject(Alive(1, "m", "a")) == "m"
        assert gossip_subject(Dead(1, "m", "s")) == "m"


class TestPrimaryKind:
    def test_bare_message(self):
        assert primary_kind(Ping(1, "t", "s")) == "ping"
        assert primary_kind(PingReq(1, "t", "s")) == "pingreq"
        assert primary_kind(PushPull("s", ())) == "pushpull"

    def test_compound_labelled_by_first_part(self):
        """Table VI counts a compound as one message of its primary kind."""
        compound = Compound((Ping(1, "t", "s"), Suspect(1, "m", "x")))
        assert primary_kind(compound) == "ping"

    def test_nested_compound(self):
        inner = Compound((Ack(1, "a"),))
        assert primary_kind(Compound((inner,))) == "ack"


class TestFlattenAndCompound:
    def test_flatten_bare(self):
        message = Ack(1, "a")
        assert flatten(message) == [message]

    def test_flatten_compound(self):
        parts = (Ping(1, "t", "s"), Suspect(1, "m", "x"), Ack(2, "y"))
        assert flatten(Compound(parts)) == list(parts)

    def test_flatten_nested(self):
        inner = Compound((Ack(1, "a"), Ack(9, "z")))
        outer = Compound((Ping(1, "t", "s"), inner))
        assert flatten(outer) == [Ping(1, "t", "s"), Ack(1, "a"), Ack(9, "z")]

    def test_empty_compound_rejected(self):
        with pytest.raises(ValueError):
            Compound(())

    def test_primary_accessor(self):
        compound = Compound((Ping(1, "t", "s"), Ack(2, "y")))
        assert compound.primary == Ping(1, "t", "s")


class TestPushPull:
    def test_iter_entries_decodes_enum(self):
        sync = PushPull("s", (("a", "addr", 3, int(MemberState.SUSPECT)),))
        entries = list(sync.iter_entries())
        assert entries == [("a", "addr", 3, MemberState.SUSPECT, 0.0, b"")]
        assert entries[0][3] is MemberState.SUSPECT

    def test_iter_entries_passes_meta_and_age_through(self):
        sync = PushPull(
            "s", (("a", "addr", 3, int(MemberState.ALIVE), b"role=db", 1500),)
        )
        entries = list(sync.iter_entries())
        assert entries == [("a", "addr", 3, MemberState.ALIVE, 1.5, b"role=db")]

    def test_flags_default_off(self):
        sync = PushPull("s", ())
        assert not sync.join and not sync.is_reply


class TestImmutability:
    def test_messages_are_hashable_and_frozen(self):
        ping = Ping(1, "t", "s")
        assert hash(ping) == hash(Ping(1, "t", "s"))
        with pytest.raises(AttributeError):
            ping.seq_no = 2
