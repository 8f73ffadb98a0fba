"""The inbound claim path: packet -> parts -> ``_handle_suspect``.

``_handle_suspect`` answers from the suspicion table first, so what a
claim costs follows what it changes; the case table pins what each kind
of claim changes. ``_dispatch`` settles a repeat of a held suspicion and
a stale alive claim before any handler runs: a Hypothesis sequence of
claims holds it to a node whose dispatch always calls the handler, and a
breakage test shows that sequence catches a check that settles too much.
The dispatch tests pin that a packet is decoded whole before any part is
handled, in wire order, and that hostile nesting is refused at the door.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import LifeguardFlags, SwimConfig
from repro.swim import codec
from repro.swim.events import EventKind
from repro.swim.messages import Ack, Alive, Dead, Ping, PushPull, Suspect
from repro.swim.node import SwimNode
from repro.swim.state import MemberState

from tests.conftest import LocalCluster
from tests.swim.test_compound_walk import _frame, _nest

NAMES = [f"n{i}" for i in range(8)]

# Min = 5 s, Max = 30 s, K = 3 at these eight members.
CONFIG = SwimConfig(
    suspicion_alpha=5.0,
    suspicion_beta=6.0,
    flags=LifeguardFlags(lha_suspicion=True),
    push_pull_interval=0.0,
    reconnect_interval=0.0,
)

#: The incarnation the table holds for the subject in every case.
KNOWN = 5


def started_node():
    cluster = LocalCluster(NAMES, config=CONFIG)
    node = cluster.nodes["n0"]
    node.start(first_probe_delay=100.0)
    return cluster, node


def feed(node, message, sender="x"):
    node.handle_packet(codec.encode(message), sender)


def _recorded(node, monkeypatch):
    """Replace every handler with a recorder for ``node`` (other nodes
    still handle what they receive); returns the record. A node has no
    instance dict, so the recorders go on the class."""
    seen = []
    for name in (
        "_handle_suspect", "_handle_alive", "_handle_dead", "_handle_ping",
        "_handle_ack", "_handle_user_event", "_handle_ping_req",
        "_handle_nack", "_handle_push_pull",
    ):
        def recorder(self, message, *rest, _handler=getattr(SwimNode, name)):
            if self is node:
                seen.append(message)
            else:
                _handler(self, message, *rest)

        monkeypatch.setattr(SwimNode, name, recorder)
    return seen


# subject, held, claimed incarnation, sender ->
#     (re-gossiped, timer moved, incarnation merged, refuted)
# "held": n3 already raised the suspicion here. Senders: "new" has not
# been counted, "repeated" has, "late" is new but arrives after K = 3
# others were counted.
CASES = [
    # A held suspicion: the claim is weighed against the incarnation held.
    ("n1", True, KNOWN - 1, "new", (False, False, False, False)),
    ("n1", True, KNOWN - 1, "repeated", (False, False, False, False)),
    ("n1", True, KNOWN - 1, "late", (False, False, False, False)),
    ("n1", True, KNOWN, "new", (True, True, False, False)),
    ("n1", True, KNOWN, "repeated", (False, False, False, False)),
    ("n1", True, KNOWN, "late", (False, False, False, False)),
    ("n1", True, KNOWN + 1, "new", (True, True, True, False)),
    ("n1", True, KNOWN + 1, "repeated", (False, False, True, False)),
    ("n1", True, KNOWN + 1, "late", (False, False, True, False)),
    # Not held: the claim raises the suspicion, or is nothing new.
    ("n1", False, KNOWN - 1, "new", (False, False, False, False)),
    ("n1", False, KNOWN, "new", (True, True, False, False)),
    ("n1", False, KNOWN + 1, "new", (True, True, True, False)),
    # Subjects a suspicion is never held for.
    ("self", False, KNOWN - 1, "new", (False, False, False, False)),
    ("self", False, KNOWN, "new", (False, False, False, True)),
    ("self", False, KNOWN + 1, "new", (False, False, False, True)),
    ("dead", False, KNOWN, "new", (False, False, False, False)),
    ("dead", False, KNOWN + 1, "new", (False, False, False, False)),
    ("unknown", False, KNOWN, "new", (False, False, False, False)),
]


class TestHandleSuspectCaseTable:
    @pytest.mark.parametrize("subject, held, incarnation, sender, expected", CASES)
    def test_case(self, subject, held, incarnation, sender, expected):
        cluster, node = started_node()
        name = {"self": "n0", "unknown": "stranger"}.get(subject, "n1")
        if subject == "self":
            node.members.bump_local_incarnation(KNOWN - 1)
        elif subject != "unknown":
            feed(node, Alive(KNOWN, "n1", "n1"))
        if subject == "dead":
            feed(node, Dead(KNOWN, "n1", "n2"))
        if held:
            feed(node, Suspect(KNOWN, "n1", "n3"))
        if sender == "late":
            for peer in ("n4", "n5", "n6"):
                feed(node, Suspect(KNOWN, "n1", peer))
        sender_name = "n3" if sender == "repeated" else "n7"

        def deadlines():
            return [(s["member"], s["deadline"]) for s in node.suspicion_snapshot()]

        def table_incarnation():
            return node.members.known_incarnation(name)

        enqueued, timers = node.broadcasts.total_enqueued, deadlines()
        local_before = node.incarnation
        state_before = cluster.view("n0", name)
        message = Suspect(incarnation, name, sender_name)
        feed(node, message)

        refuted = node.incarnation > local_before
        regossiped = (
            node.broadcasts.total_enqueued > enqueued
            and node.broadcasts.peek(name) == message
        )
        assert regossiped == expected[0]
        assert (deadlines() != timers) == expected[1]
        if subject != "self":
            assert (table_incarnation() == incarnation > KNOWN) == expected[2]
        assert refuted == expected[3]
        # Nothing is enqueued but the re-gossip or the refuting alive.
        assert node.broadcasts.total_enqueued - enqueued == (expected[0] or refuted)
        if expected[0]:
            assert cluster.view("n0", name) is MemberState.SUSPECT
        else:
            assert cluster.view("n0", name) is state_before
        # SUSPECT <=> a held suspicion, whatever the claim did.
        assert list(node.suspicion_incarnations()) == [
            n for n in NAMES if cluster.view("n0", n) is MemberState.SUSPECT
        ]

    def test_confirmation_that_expires_the_suspicion_lands_on_no_dead_member(self):
        # The first confirmation halves the way from Max to Min: past
        # 17.5 s it is already overdue and the suspicion expires inside
        # the handler. When that claim also carries a newer incarnation,
        # the subject must end DEAD at it — not DEAD and then SUSPECT
        # again with no timer left to ever resolve it.
        cluster, node = started_node()
        feed(node, Alive(KNOWN, "n1", "n1"))
        feed(node, Suspect(KNOWN, "n1", "n3"))
        cluster.run_for(20.0)
        assert cluster.view("n0", "n1") is MemberState.SUSPECT
        feed(node, Suspect(KNOWN + 1, "n1", "n4"))
        assert cluster.view("n0", "n1") is MemberState.DEAD
        assert node.members.known_incarnation("n1") == KNOWN + 1
        assert node.suspicion_count == 0
        assert node.broadcasts.peek("n1") == Dead(KNOWN + 1, "n1", "n0")
        failed = cluster.events.of_kind(EventKind.FAILED)
        assert [(e.subject, e.incarnation) for e in failed] == [("n1", KNOWN + 1)]

    def test_snapshot_naming_a_suspect_twice_cannot_confirm_the_dead(self):
        # A push-pull is merged into the table whole before its first
        # decision is applied. One that says "suspect" and then "dead"
        # about a member whose suspicion is held must not count the
        # first as a confirmation of a member the table already buried.
        cluster, node = started_node()
        feed(node, Alive(KNOWN, "n1", "n1"))
        feed(node, Suspect(KNOWN, "n1", "n3"))
        enqueued = node.broadcasts.total_enqueued
        snapshot = PushPull(
            "n5",
            (
                ("n1", "n1", KNOWN, int(MemberState.SUSPECT), b"", 0),
                ("n1", "n1", KNOWN, int(MemberState.DEAD), b"", 0),
            ),
            is_reply=True,
        )
        feed(node, snapshot, sender="n5")
        assert cluster.view("n0", "n1") is MemberState.DEAD
        assert node.suspicion_count == 0
        assert node.broadcasts.total_enqueued == enqueued + 1
        assert node.broadcasts.peek("n1") == Dead(KNOWN, "n1", "n5")


# --------------------------------------------------------------------- #
# Claims settled in _dispatch, against the handler path
# --------------------------------------------------------------------- #

SUBJECTS = ("n1", "n2")
#: "n0" is the node itself: a suspicion it raised counts it first.
SENDERS = ("n0", "n3", "n4", "n5", "n6", "n7")

#: ``(kind, subject, incarnation offset from the table's, sender or wait)``.
CLAIMS = st.lists(
    st.one_of(
        st.tuples(
            st.just("suspect"), st.sampled_from(SUBJECTS),
            st.integers(-1, 1), st.sampled_from(SENDERS),
        ),
        st.tuples(
            st.just("alive"), st.sampled_from(SUBJECTS), st.integers(-1, 1), st.just(""),
        ),
        st.tuples(st.just("wait"), st.just(""), st.just(0), st.sampled_from([1.0, 4.0])),
    ),
    max_size=40,
)

#: Suspected at 5 by n3, then the same claim again from n3 at 6: a check
#: that settled it would leave the table at 5.
HIGHER_REPEAT = [("suspect", "n1", 0, "n3"), ("suspect", "n1", 1, "n3")]


def _handler_path(node, message):
    """The reference: a dispatch that hands every claim to its handler."""
    if message.__class__ is Suspect:
        node._handle_suspect(message)
    else:
        node._handle_alive(message)


def _observed(cluster, node):
    """Everything a claim may change: table rows, held suspicions (their
    incarnation, confirmers and timer), the broadcast queue and the
    events emitted."""
    held = {
        name: (
            entry.incarnation,
            sorted(entry.confirmers),
            entry.suspicion.deadline(),
            None if entry.timer is None else entry.timer[0],
        )
        for name, entry in node._suspicions.items()
    }
    queue = node.broadcasts
    return (
        sorted(node.members.claims()),
        held,
        list(queue.entries()),
        [queue.peek(subject) for subject in SUBJECTS],
        queue.total_enqueued,
        [(e.time, e.kind, e.subject, e.incarnation) for e in cluster.events.events],
    )


def _check_against_handler_path(claims):
    clusters, nodes = zip(started_node(), started_node())
    for cluster, node in zip(clusters, nodes):
        for subject in SUBJECTS:
            _handler_path(node, Alive(KNOWN, subject, subject))
    dispatched, reference = nodes
    for kind, subject, offset, extra in claims:
        if kind == "wait":
            for cluster in clusters:
                cluster.run_for(extra)
        else:
            incarnation = max(0, reference.members.known_incarnation(subject) + offset)
            if kind == "suspect":
                message = Suspect(incarnation, subject, extra)
            else:
                message = Alive(incarnation, subject, subject)
            dispatched._dispatch((message,), "x", False)
            _handler_path(reference, message)
        assert _observed(clusters[0], dispatched) == _observed(clusters[1], reference)


@settings(deadline=None, max_examples=150, database=None)
@given(claims=CLAIMS)
@example(claims=HIGHER_REPEAT)
def check_against_handler_path(claims):
    _check_against_handler_path(claims)


class TestSettledClaims:
    def test_settled_claims_match_the_handler_path(self):
        check_against_handler_path()

    def test_settling_a_higher_incarnation_repeat_breaks_it(self, monkeypatch):
        dispatch = SwimNode._dispatch

        def settles_higher_repeats(self, parts, from_address, reliable):
            # The mutant: a counted sender's claim is settled at any
            # incarnation, not only at the one held.
            for message in parts:
                entry = self._suspicions.get(getattr(message, "member", None))
                if (
                    message.__class__ is Suspect
                    and entry is not None
                    and message.incarnation >= entry.incarnation
                    and message.sender in entry.confirmers
                ):
                    continue
                dispatch(self, (message,), from_address, reliable)

        monkeypatch.setattr(SwimNode, "_dispatch", settles_higher_repeats)
        with pytest.raises(AssertionError):
            _check_against_handler_path(HIGHER_REPEAT)
        with pytest.raises(AssertionError):
            check_against_handler_path()

    def test_a_settled_claim_reaches_no_handler(self, monkeypatch):
        _cluster, node = started_node()
        feed(node, Alive(KNOWN, "n1", "n1"))
        feed(node, Alive(KNOWN, "n2", "n2"))
        feed(node, Suspect(KNOWN, "n1", "n3"))
        for peer in ("n4", "n5", "n6"):
            feed(node, Suspect(KNOWN, "n1", peer))
        seen = _recorded(node, monkeypatch)
        settled = [
            Suspect(KNOWN - 1, "n1", "n7"),  # below the held incarnation
            Suspect(KNOWN, "n1", "n3"),  # a counted sender
            Suspect(KNOWN, "n1", "n7"),  # K already counted
            Alive(KNOWN, "n1", "n1"),  # nothing newer than the table's
            Alive(KNOWN - 1, "n2", "n2"),
        ]
        handled = [Suspect(KNOWN + 1, "n1", "n3"), Alive(KNOWN + 1, "n2", "n2")]
        node.handle_packet(_frame([codec.encode(m) for m in settled + handled]), "x")
        assert seen == handled


class TestDispatch:
    def test_parts_dispatch_in_wire_order(self, monkeypatch):
        _cluster, node = started_node()
        seen = _recorded(node, monkeypatch)
        parts = [Ping(1, "n0", "n2"), Suspect(1, "n1", "n3"), Alive(2, "n1", "n1"),
                 Dead(2, "n4", "n5"), Ack(9, "n2")]
        node.handle_packet(_frame([codec.encode(p) for p in parts]), "n2")
        assert seen == parts

    def test_nested_parts_dispatch_in_wire_order(self, monkeypatch):
        _cluster, node = started_node()
        seen = _recorded(node, monkeypatch)
        a, b, c, d, e = (Suspect(i, "n1", f"n{i}") for i in range(2, 7))
        enc = codec.encode
        wire = _frame([enc(a), _frame([enc(b), _frame([enc(c)]), enc(d)]), enc(e)])
        node.handle_packet(wire, "n2")
        assert seen == [a, b, c, d, e]

    def test_bare_message_dispatches(self, monkeypatch):
        _cluster, node = started_node()
        seen = _recorded(node, monkeypatch)
        node.handle_packet(codec.encode(Ack(3, "n2")), "n2")
        assert seen == [Ack(3, "n2")]

    @pytest.mark.parametrize("make", [bytes, bytearray, memoryview])
    def test_corrupt_last_part_dispatches_nothing(self, make, monkeypatch):
        cluster, node = started_node()
        seen = _recorded(node, monkeypatch)
        good = [codec.encode(Suspect(1, "n1", "n3")), codec.encode(Dead(1, "n2", "n3"))]
        bad = codec.encode(Alive(2, "n4", "n4"))[:-1]
        node.handle_packet(make(_frame(good + [bad])), "n2")
        assert seen == []
        assert node.telemetry.msgs_received == 1  # it did arrive

    @pytest.mark.parametrize("make", [bytes, bytearray, memoryview])
    def test_hostile_nesting_neither_raises_nor_dispatches(self, make, monkeypatch):
        _cluster, node = started_node()
        seen = _recorded(node, monkeypatch)
        wire = _nest(codec.encode(Ack(1, "a")), 2000)
        node.handle_packet(make(wire), "n2")  # RecursionError before the bound
        assert seen == []

    def test_nesting_at_the_bound_is_dispatched(self, monkeypatch):
        _cluster, node = started_node()
        seen = _recorded(node, monkeypatch)
        wire = _nest(codec.encode(Ack(1, "a")), codec.MAX_COMPOUND_DEPTH)
        node.handle_packet(wire, "n2")
        assert seen == [Ack(1, "a")]
