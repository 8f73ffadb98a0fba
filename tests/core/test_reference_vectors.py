"""Protocol numerics pinned to hand-computed vectors, cited to source.

Companions of the suspicion ladder in ``test_suspicion.py``
(``test_memberlist_reference_vector``): every expected value below was
worked out by hand from the cited text, not produced by the code under
test or by the formula restated in Python.
"""

import pytest

from repro.core.lhm import LhmEvent, LocalHealthMultiplier
from repro.swim.broadcast import BroadcastQueue, retransmit_limit
from repro.swim.messages import Suspect

SUCCESS = LhmEvent.PROBE_SUCCESS
FAILED = LhmEvent.PROBE_FAILED
REFUTE = LhmEvent.REFUTE_SELF
MISSED_NACK = LhmEvent.MISSED_NACK


class TestLocalHealthMultiplierEventTable:
    """Lifeguard (Dadgar, Phillips & Currey, DSN 2018; arXiv:1707.00788v2)
    Section IV-A: the LHM is "a saturating counter" with values from 0 to
    S, moved by four events — successful probe (ping or ping-req with
    ack) -1, failed probe +1, refuting a suspect message about self +1,
    probe with missed nack +1 — and it multiplies the probe interval and
    the probe timeout by (LHM + 1)."""

    #: One walk over every row of the table and both ends of the range,
    #: S = 8 (the paper's setting): the event, then the LHM after it.
    WALK = [
        (SUCCESS, 0),  # already at the floor: stays 0
        (FAILED, 1),
        (MISSED_NACK, 2),
        (REFUTE, 3),
        (SUCCESS, 2),
        (FAILED, 3),
        (FAILED, 4),
        (MISSED_NACK, 5),
        (MISSED_NACK, 6),
        (REFUTE, 7),
        (REFUTE, 8),
        (FAILED, 8),  # saturated at S: stays 8
        (MISSED_NACK, 8),
        (REFUTE, 8),
        (SUCCESS, 7),
        (SUCCESS, 6),
        (FAILED, 7),
        (SUCCESS, 6),
        (SUCCESS, 5),
        (SUCCESS, 4),
        (SUCCESS, 3),
        (SUCCESS, 2),
        (SUCCESS, 1),
        (SUCCESS, 0),
        (SUCCESS, 0),
    ]

    def test_walk_over_the_event_table(self):
        lhm = LocalHealthMultiplier(max_value=8)
        for step, (event, expected) in enumerate(self.WALK):
            assert lhm.note(event) == expected, f"step {step}: {event}"
            assert lhm.multiplier == expected + 1

    def test_backoff_reaches_the_papers_nine_and_four_and_a_half_seconds(self):
        """Same section: with BaseProbeInterval = 1 s, BaseProbeTimeout =
        500 ms and S = 8 "the Probe Interval and Probe Timeout will back
        off as high as 9 seconds and 4.5 seconds"."""
        lhm = LocalHealthMultiplier(max_value=8)
        for _ in range(20):
            lhm.note(FAILED)
        assert lhm.score == 8 and lhm.saturated
        assert lhm.scale(1.0) == 9.0
        assert lhm.scale(0.5) == 4.5

    @pytest.mark.parametrize("saturation", [0, 1, 3])
    def test_saturation_is_at_s_not_at_eight(self, saturation):
        lhm = LocalHealthMultiplier(max_value=saturation)
        for event in (FAILED, REFUTE, MISSED_NACK, FAILED, FAILED):
            lhm.note(event)
        assert lhm.score == saturation
        assert lhm.note(SUCCESS) == max(0, saturation - 1)


class TestRetransmitLimitVectors:
    """SWIM (Das, Gupta & Motivala, DSN 2002, Section 4.1) piggybacks
    each membership update lambda * log(n) times; memberlist — the
    implementation Lifeguard is built into and evaluated on — fixes the
    logarithm as ``RetransmitMult * ceil(log10(n + 1))`` (``util.go``,
    ``retransmitLimit``; its own unit test checks (3, 1) -> 3 and
    (3, 99) -> 6). Expected values are the ceilings read off a table of
    decimal logarithms: ceil(log10(m)) is the number of digits of m - 1
    for m >= 2."""

    @pytest.mark.parametrize(
        "mult, n, expected",
        [
            (3, 1, 3),  # log10(2) = 0.30 -> 1
            (3, 99, 6),  # log10(100) = 2 exactly -> 2
            (3, 100, 9),  # log10(101) = 2.004 -> 3
            (4, 2, 4),
            (4, 9, 4),  # log10(10) = 1 exactly -> 1
            (4, 10, 8),  # log10(11) = 1.04 -> 2
            (4, 128, 12),  # the paper's cluster size: log10(129) = 2.11 -> 3
            (4, 999, 12),  # log10(1000) = 3 exactly -> 3
            (4, 1000, 16),
            (4, 1024, 16),
            (4, 4096, 16),
            (4, 9999, 16),
            (4, 10000, 20),
            (1, 999_999, 6),
            (1, 1_000_000, 7),
            (6, 16384, 30),  # log10(16385) = 4.21 -> 5
        ],
    )
    def test_limit(self, mult, n, expected):
        assert retransmit_limit(mult, n) == expected

    def test_one_transmission_floor_where_memberlist_gives_zero(self):
        """memberlist's ``retransmitLimit(3, 0)`` is 0 (log10(1) = 0); a
        member that knows nobody has nobody to gossip to, so the value is
        never used there. Here an empty or unknown group size still
        allows lambda transmissions — a documented deviation."""
        assert retransmit_limit(3, 0) == 3

    def test_queue_retires_a_broadcast_after_exactly_the_limit(self):
        queue = BroadcastQueue(4, lambda: 128)
        queue.enqueue(Suspect(1, "m1", "m2"))
        handed_out = 0
        while queue.pending:
            assert len(queue.get_payloads(1400, 2)[0]) == 1
            handed_out += 1
            assert handed_out <= 12
        assert handed_out == 12
