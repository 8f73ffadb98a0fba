"""Tests for the transmit-limited gossip broadcast queue."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.swim import codec
from repro.swim.broadcast import BroadcastQueue, retransmit_limit
from repro.swim.messages import Alive, Dead, Suspect


def make_queue(n_members=128, mult=4):
    return BroadcastQueue(mult, lambda: n_members)


class TestRetransmitLimit:
    def test_paper_formula(self):
        """lambda * ceil(log10(n + 1)) transmissions per broadcast."""
        assert retransmit_limit(4, 128) == 4 * math.ceil(math.log10(129))
        assert retransmit_limit(4, 9) == 4  # log10(10) == 1
        assert retransmit_limit(4, 10) == 8  # ceil(log10(11)) == 2

    def test_minimum_one(self):
        assert retransmit_limit(1, 0) >= 1

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=10**6))
    def test_grows_logarithmically(self, mult, n):
        limit = retransmit_limit(mult, n)
        assert limit >= mult
        assert limit <= mult * (math.ceil(math.log10(n + 1)) or 1)


class TestEnqueueAndInvalidate:
    def test_enqueue_makes_pending(self):
        queue = make_queue()
        assert not queue.pending
        queue.enqueue(Suspect(1, "m1", "s"))
        assert queue.pending
        assert len(queue) == 1

    def test_newer_claim_replaces_same_member(self):
        queue = make_queue()
        queue.enqueue(Suspect(1, "m1", "s"))
        queue.enqueue(Alive(2, "m1", "addr"))
        assert len(queue) == 1
        assert queue.peek("m1") == Alive(2, "m1", "addr")

    def test_different_members_coexist(self):
        queue = make_queue()
        queue.enqueue(Suspect(1, "m1", "s"))
        queue.enqueue(Suspect(1, "m2", "s"))
        assert len(queue) == 2

    def test_explicit_invalidate(self):
        queue = make_queue()
        queue.enqueue(Dead(1, "m1", "s"))
        queue.invalidate("m1")
        assert not queue.pending
        assert queue.peek("m1") is None

    def test_clear(self):
        queue = make_queue()
        queue.enqueue(Dead(1, "m1", "s"))
        queue.clear()
        assert len(queue) == 0

    def test_total_enqueued_counter(self):
        queue = make_queue()
        queue.enqueue(Suspect(1, "m1", "s"))
        queue.enqueue(Alive(2, "m1", "a"))
        assert queue.total_enqueued == 2


class TestPayloadSelection:
    def test_payloads_are_encoded_messages(self):
        queue = make_queue()
        message = Suspect(1, "m1", "s")
        queue.enqueue(message)
        payloads = queue.get_payloads(1000, 2)[0]
        assert payloads == [codec.encode(message)]

    def test_byte_budget_respected(self):
        queue = make_queue()
        for i in range(20):
            queue.enqueue(Alive(1, f"member-{i:02d}", "some-address:1234"))
        size = len(codec.encode(Alive(1, "member-00", "some-address:1234")))
        budget = 3 * (size + 2)
        payloads = queue.get_payloads(budget, 2)[0]
        assert len(payloads) == 3
        assert sum(len(p) + 2 for p in payloads) <= budget

    def test_zero_budget_selects_nothing(self):
        queue = make_queue()
        queue.enqueue(Suspect(1, "m1", "s"))
        assert queue.get_payloads(0, 2)[0] == []
        assert queue.pending  # not consumed

    def test_fewest_transmitted_first(self):
        queue = make_queue(n_members=128)
        queue.enqueue(Suspect(1, "m1", "s"))
        size = len(codec.encode(Suspect(1, "m1", "s")))
        # Transmit m1 a few times, then add a fresh broadcast.
        for _ in range(3):
            queue.get_payloads(size + 2, 2)
        queue.enqueue(Suspect(1, "m2", "s"))
        first = queue.get_payloads(size + 2, 2)[0]
        assert first == [codec.encode(Suspect(1, "m2", "s"))]

    def test_retired_after_limit(self):
        queue = make_queue(n_members=9, mult=2)  # limit = 2
        queue.enqueue(Suspect(1, "m1", "s"))
        for _ in range(2):
            assert queue.get_payloads(1000, 2)[0]
        assert not queue.pending

    def test_replacement_restarts_transmit_count(self):
        queue = make_queue(n_members=9, mult=2)  # limit = 2
        queue.enqueue(Suspect(1, "m1", "s"))
        queue.get_payloads(1000, 2)
        queue.enqueue(Suspect(2, "m1", "s"))  # replaces, resets count
        assert queue.get_payloads(1000, 2)[0]
        assert queue.pending  # one transmit used of the fresh limit

    def test_empty_queue_returns_nothing(self):
        assert make_queue().get_payloads(1000, 2) == [[]]

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=30))
    def test_total_transmissions_bounded(self, member_ids):
        """No broadcast is ever sent more than the retransmit limit."""
        queue = make_queue(n_members=50, mult=2)
        limit = queue.current_limit()
        for member_id in member_ids:
            queue.enqueue(Suspect(1, f"m{member_id}", "s"))
        unique = len({f"m{m}" for m in member_ids})
        total = 0
        for _ in range(1000):
            got = queue.get_payloads(10_000, 2)[0]
            if not got:
                break
            total += len(got)
        assert total <= unique * limit


class TestOversizedBroadcasts:
    """A broadcast that can never fit a packet must not pin the queue."""

    def test_oversized_enqueue_is_dropped_and_counted(self):
        drops = []
        queue = BroadcastQueue(
            4, lambda: 9, max_payload=32, on_oversized=drops.append
        )
        big = Alive(1, "m1", "addr", meta=b"x" * 200)
        with pytest.warns(RuntimeWarning, match="oversized broadcast"):
            queue.enqueue(big)
        assert not queue.pending
        assert queue.total_oversized == 1
        assert queue.total_enqueued == 0
        assert drops and drops[0] > 32

    def test_oversized_replacement_retires_old_claim(self):
        queue = BroadcastQueue(4, lambda: 9, max_payload=64)
        queue.enqueue(Suspect(1, "m1", "s"))
        assert queue.pending
        with pytest.warns(RuntimeWarning):
            queue.enqueue(Alive(2, "m1", "addr", meta=b"x" * 200))
        # The stale claim must not keep circulating once superseded.
        assert not queue.pending

    def test_oversized_does_not_starve_other_broadcasts(self):
        queue = BroadcastQueue(4, lambda: 9, max_payload=40)
        with pytest.warns(RuntimeWarning):
            queue.enqueue(Alive(1, "big", "addr", meta=b"x" * 100))
        queue.enqueue(Suspect(1, "small", "s"))
        got = queue.get_payloads(1000, 2)[0]
        assert got == [codec.encode(Suspect(1, "small", "s"))]

    def test_no_limit_keeps_legacy_behaviour(self):
        queue = make_queue()
        queue.enqueue(Alive(1, "m1", "addr", meta=b"x" * 200))
        assert queue.pending
        assert queue.total_oversized == 0
