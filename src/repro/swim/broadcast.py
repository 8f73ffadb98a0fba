"""Transmit-limited gossip broadcast queue.

SWIM's dissemination component shares each update ``lambda * log(n)``
times, piggybacked on failure-detector messages, preferring updates that
have been shared fewer times so all updates make progress under bursts
(Section III-A). memberlist additionally drains the same queue from a
dedicated gossip tick.

Invalidation: the queue is keyed by the member a gossip message is about —
a fresher claim about a member replaces any queued older claim, so the
queue never spreads self-contradictory state.

Selection runs for every outgoing packet, so it must not re-sort the
whole queue each time. Entries live in per-transmit-count *buckets*, each kept
ordered newest-first; walking the buckets in ascending transmit order
visits entries exactly as a full sort by ``(transmits, -enqueued_seq)``
would. The buckets are exact: every item in bucket ``t`` is the queue's
current entry for its subject and has been transmitted ``t`` times, and
no bucket is empty. A replaced or invalidated entry leaves its bucket on
the spot (found by bisecting on its sequence number), so selection never
tests an item for liveness, and since everything in a bucket shares one
transmit count, a bucket the packet has room for is taken, retired or
promoted as a whole.

A gossip tick sends to several targets at once, and one call serves them
all (``get_payloads(..., rounds=k)``). While the queue fits one packet —
almost always outside a burst — the first packet takes everything and
each later one the same, less what reached the limit: one walk, then a
prefix per packet, and the same list object for packets that carry the
same broadcasts.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

from repro.swim import codec
from repro.swim.messages import GossipMessage, gossip_subject


def retransmit_limit(retransmit_mult: int, n_members: int) -> int:
    """``lambda * ceil(log10(n + 1))`` transmissions per broadcast."""
    scale = math.ceil(math.log10(n_members + 1))
    return max(1, retransmit_mult * max(1, scale))


class _QueuedBroadcast:
    __slots__ = ("message", "payload", "transmits", "enqueued_seq", "subject")

    def __init__(
        self, message: GossipMessage, payload: bytes, seq: int, subject: str
    ) -> None:
        self.message = message
        self.payload = payload
        self.transmits = 0
        self.enqueued_seq = seq
        self.subject = subject


#: Bucket item: ``(-enqueued_seq, entry)``. Sequence numbers are unique,
#: so tuple comparison never reaches the (incomparable) entry, and
#: ascending order within a bucket is newest-first.
_BucketItem = Tuple[int, _QueuedBroadcast]


class BroadcastQueue:
    """Holds pending gossip broadcasts and doles them out per packet.

    Parameters
    ----------
    retransmit_mult:
        ``lambda``; each broadcast is retired after
        ``lambda * ceil(log10(n + 1))`` transmissions.
    n_members_fn:
        Callable returning the current known group size, so the limit
        tracks membership changes.
    max_payload:
        Largest encoded payload that can ever fit a packet (the packet
        budget of the *dedicated gossip tick*, which is the most generous
        caller). Broadcasts larger than this can never be transmitted, so
        they are dropped on enqueue (and retired from the queue if already
        present) instead of pinning the queue forever. ``None`` disables
        the check.
    on_oversized:
        Optional callback invoked with the payload size whenever an
        oversized broadcast is dropped (telemetry hook).
    """

    __slots__ = (
        "_mult",
        "_n_members_fn",
        "_limit_for",
        "_queue",
        "_buckets",
        "_seq",
        "total_enqueued",
        "_max_payload",
        "_on_oversized",
        "total_oversized",
    )

    def __init__(
        self,
        retransmit_mult: int,
        n_members_fn: Callable[[], int],
        max_payload: Optional[int] = None,
        on_oversized: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._mult = retransmit_mult
        self._n_members_fn = n_members_fn
        #: ``(n, retransmit limit at group size n)`` as last computed.
        self._limit_for: Tuple[int, int] = (-1, 0)
        # Never rebound: SwimNode tests this dict in place, once per tick
        # and per send, to learn whether anything is pending.
        self._queue: Dict[str, _QueuedBroadcast] = {}
        self._buckets: Dict[int, List[_BucketItem]] = {}
        self._seq = 0
        #: Total broadcasts ever enqueued (telemetry).
        self.total_enqueued = 0
        self._max_payload = max_payload
        self._on_oversized = on_oversized
        #: Total broadcasts dropped as undeliverably large (telemetry).
        self.total_oversized = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> bool:
        return bool(self._queue)

    def current_limit(self) -> int:
        """The retransmit limit at the current group size (the logarithm
        is taken again only when the size has changed)."""
        n = self._n_members_fn()
        known_n, limit = self._limit_for
        if n != known_n:
            limit = retransmit_limit(self._mult, n)
            self._limit_for = (n, limit)
        return limit

    def enqueue(self, message: GossipMessage) -> None:
        """Queue ``message``, replacing any queued claim about the same
        member (the replacement restarts the transmit count).

        An undeliverably large message is dropped — and any older queued
        claim about the same member retired with it, since the new claim
        supersedes it and a stale claim must not keep circulating."""
        payload = codec.encode(message)
        subject = gossip_subject(message)
        if self._max_payload is not None and len(payload) > self._max_payload:
            self.invalidate(subject)
            self._note_oversized(subject, len(payload))
            return
        self._seq += 1
        self.total_enqueued += 1
        replaced = self._queue.get(subject)
        if replaced is not None:
            self._unbucket(replaced)
        entry = _QueuedBroadcast(message, payload, self._seq, subject)
        self._queue[subject] = entry
        # The newest entry of all sorts first in the never-sent bucket.
        bucket = self._buckets.get(0)
        if bucket is None:
            self._buckets[0] = [(-self._seq, entry)]
        else:
            bucket.insert(0, (-self._seq, entry))

    def _note_oversized(self, subject: str, size: int) -> None:
        self.total_oversized += 1
        warnings.warn(
            f"dropping oversized broadcast about {subject!r}: "
            f"{size} > {self._max_payload} bytes",
            RuntimeWarning,
            stacklevel=3,
        )
        if self._on_oversized is not None:
            self._on_oversized(size)

    def invalidate(self, member: str) -> None:
        """Drop any queued broadcast about ``member``."""
        entry = self._queue.pop(member, None)
        if entry is not None:
            self._unbucket(entry)

    def _unbucket(self, entry: _QueuedBroadcast) -> None:
        bucket = self._buckets[entry.transmits]
        if len(bucket) == 1:
            del self._buckets[entry.transmits]
        else:
            # ``(-seq,)`` sorts just before ``(-seq, entry)``, and no
            # other item shares the sequence number.
            del bucket[bisect_left(bucket, (-entry.enqueued_seq,))]

    def peek(self, member: str) -> Optional[GossipMessage]:
        """The queued claim about ``member``, if any (not a transmission)."""
        entry = self._queue.get(member)
        return entry.message if entry is not None else None

    def entries(self):
        """Yield ``(subject, transmits, payload_size)`` for every queued
        broadcast — inspection only (used by the retransmit-bound oracle
        in :mod:`repro.check.invariants`); transmit counts are not
        affected."""
        for subject, entry in self._queue.items():
            yield subject, entry.transmits, len(entry.payload)

    def get_payloads(
        self, byte_budget: int, per_payload_overhead: int, rounds: int = 1
    ) -> List[List[bytes]]:
        """Select encoded broadcasts for ``rounds`` outgoing packets, one
        list per packet, exactly as ``rounds`` successive selections
        would: a piggybacking send is one round, a gossip tick one round
        per fanout target.

        Fewest-transmitted first (newest as tie-break), greedily filling
        ``byte_budget``; each selected payload costs its own length plus
        ``per_payload_overhead`` framing bytes. Selected broadcasts get
        their transmit count bumped and are retired once they reach the
        retransmit limit. A round that selects nothing leaves the queue
        as it was, so it and every round after it are empty.

        Once one packet takes the whole queue, every later one does too,
        less what retired at the one before: the rest of the round is
        served without walking the queue again (:meth:`_serve_again`).
        Consecutive packets that carry the same broadcasts get the same
        list object, so a caller packs each distinct list once. The lists
        are not to be mutated.
        """
        served: List[List[bytes]] = []
        limit = self.current_limit()
        while self._queue and len(served) < rounds:
            payloads, whole = self._select(byte_budget, per_payload_overhead, limit)
            if not payloads:
                break
            served.append(payloads)
            if whole and len(served) < rounds:
                served.extend(self._serve_again(payloads, rounds - len(served), limit))
        if len(served) < rounds:
            served.extend([] for _ in range(rounds - len(served)))
        return served

    def _select(
        self, byte_budget: int, per_payload_overhead: int, limit: int
    ) -> Tuple[List[bytes], bool]:
        """One packet's selection, and whether it took the whole queue.

        Walks the transmit-count buckets in ascending order — the same
        visit order as sorting everything by ``(transmits, -seq)``. What
        a bucket gives up moves on as one sorted run, and only after the
        walk, so one packet never carries the same broadcast twice; the
        walk stops once the remaining budget cannot fit even an empty
        payload (skipped entries carry no state, so stopping is
        unobservable).
        """
        queue = self._queue
        buckets = self._buckets
        selected: List[bytes] = []
        append = selected.append
        remaining = byte_budget
        whole = True
        promoted: List[Tuple[int, List[_BucketItem]]] = []
        for key in sorted(buckets):
            if remaining <= per_payload_overhead:
                whole = False
                break
            bucket = taken = buckets[key]
            sent = key + 1
            for index, item in enumerate(bucket):
                entry = item[1]
                cost = len(entry.payload) + per_payload_overhead
                if cost > remaining:
                    # The bucket does not fit whole: from here on it is
                    # split, item by item, into what goes and what stays.
                    whole = False
                    taken = bucket[:index]
                    kept = [item]
                    for item in bucket[index + 1 :]:
                        entry = item[1]
                        cost = len(entry.payload) + per_payload_overhead
                        if cost > remaining:
                            kept.append(item)
                        else:
                            remaining -= cost
                            append(entry.payload)
                            entry.transmits = sent
                            taken.append(item)
                    buckets[key] = kept
                    break
                remaining -= cost
                append(entry.payload)
                entry.transmits = sent
            else:
                del buckets[key]
            if sent >= limit:
                for item in taken:
                    del queue[item[1].subject]
            elif taken:
                promoted.append((sent, taken))
        for sent, run in promoted:
            bucket = buckets.get(sent)
            if bucket is None:
                buckets[sent] = run
            else:
                # Two sorted runs: the sort is a single merge.
                bucket.extend(run)
                bucket.sort()
        return selected, whole

    def _serve_again(
        self, payloads: List[bytes], rounds: int, limit: int
    ) -> List[List[bytes]]:
        """``rounds`` more packets after one that took the whole queue
        (``payloads``, whose entries still queued are its first
        ``len(self)``, by ascending transmit count).

        Every bucket was taken whole and moved up one, so no two merged:
        each packet takes the whole queue again, less the buckets that
        reached the limit at the packet before — a shorter prefix of
        ``payloads``. A bucket at ``key`` goes out ``limit - key`` more
        times at most; what is left of the queue afterwards is its
        buckets moved up ``rounds``, those that reach the limit retired.
        """
        buckets = self._buckets
        keys = sorted(buckets)
        count = len(self._queue)
        top = len(keys)
        served: List[List[bytes]] = []
        for sent in range(1, rounds + 1):
            while top and keys[top - 1] + sent > limit:
                top -= 1
                count -= len(buckets[keys[top]])
            if count != len(payloads):
                payloads = payloads[:count]
            served.append(payloads)
        queue = self._queue
        moved: Dict[int, List[_BucketItem]] = {}
        for key in keys:
            run = buckets[key]
            sent = key + rounds
            if sent >= limit:
                for item in run:
                    del queue[item[1].subject]
            else:
                for item in run:
                    item[1].transmits = sent
                moved[sent] = run
        self._buckets = moved
        return served

    def clear(self) -> None:
        self._queue.clear()
        self._buckets.clear()
