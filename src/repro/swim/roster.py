"""Subject names interned to dense ids, and the table their maps publish.

A :class:`Roster` is shared by the maps of one simulated cluster (and the
bridge directories of one zone shard); a lone real-network member gets a
private one. The per-observer columns indexed by its ids live in
:class:`repro.swim.member_map.MemberMap`.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import is_not
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.swim.codec import pack_entry
from repro.swim.state import MemberState

#: State-column byte of a roster id this map does not hold.
_ABSENT = len(MemberState)
_ALIVE = int(MemberState.ALIVE)

#: Ids per block that :func:`_differing` compares whole before it looks
#: inside.
_DIFF_BLOCK = 512


def _differing(column, published, width: int) -> Iterator[int]:
    """Indices at which two equally long columns of ``width``-byte items
    differ. A block of ids whose two slices compare equal is skipped at
    C speed; in any other, the indices are read off one XOR of the two
    as integers, Python per index found. (One XOR of the whole columns
    would shift a column-sized integer per index found: quadratic when
    most ids differ, as on a roster's first publish.)"""
    mine, theirs = bytes(column), bytes(published)
    bits, step = 8 * width, _DIFF_BLOCK * width
    for start in range(0, len(mine), step):
        block, other = mine[start : start + step], theirs[start : start + step]
        if block == other:
            continue
        delta = int.from_bytes(block, "little") ^ int.from_bytes(other, "little")
        base = start // width
        while delta:
            skip = ((delta & -delta).bit_length() - 1) // bits + 1
            base += skip
            yield base - 1
            delta >>= skip * bits


class Record:
    """What an alive claim says about a member beyond its liveness:
    ``address``, ``meta`` and ``zone``. Never written after construction
    and shared between observers (and the roster); a claim that changes
    one replaces the record.
    """

    __slots__ = ("address", "meta", "zone")

    def __init__(self, address: str, meta: bytes, zone: str) -> None:
        self.address = address
        self.meta = meta
        self.zone = zone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self.address == other.address
            and self.meta == other.meta
            and self.zone == other.zone
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Record({self.address!r}, {self.meta!r}, {self.zone!r})"


#: A read-only member table, shared by the maps that hold it: states,
#: incarnations, changed-at times and records, indexed by roster id.
SharedTable = Tuple[bytes, memoryview, memoryview, Tuple[Optional[Record], ...]]


class Roster:
    """Subject names interned to dense ids, shared by a cluster's maps.

    ``names[id]`` and ``ids[name]`` are inverse; ``records[id]`` is the
    :class:`Record` the subject was interned with, or — when
    the subject's own map shares this roster — what it last announced
    about itself (:meth:`MemberMap.set_local_meta` publishes here). Maps
    reference these records rather than copying them, and
    :meth:`MemberMap.add_many` seeds a table from them.

    The ``published_*`` columns copy the table of the last map to
    :meth:`publish` (state byte, incarnation, record per id);
    ``entries[id]`` is that claim packed for the wire (``b""`` for an
    id not held) and ``alive`` the set of those that claim ALIVE. The
    maps of a quiet cluster all equal it: n tables, packed once.
    ``published_from`` is the incarnation column of the
    :meth:`bootstrap` table it was last published from, or ``None``: a
    map still holding that table equals the published one by identity.
    """

    __slots__ = (
        "names",
        "ids",
        "records",
        "_sequence",
        "_bootstrap",
        "published_states",
        "published_incarnations",
        "published_records",
        "published_from",
        "entries",
        "alive",
    )

    def __init__(self) -> None:
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}
        self.records: List[Record] = []
        self._sequence = array("I")
        self._bootstrap: Optional[Tuple[tuple, SharedTable]] = None
        self.published_states = bytearray()
        self.published_incarnations = array("Q")
        self.published_records: List[Optional[Record]] = []
        self.published_from: Optional[memoryview] = None
        self.entries: List[bytes] = []
        self.alive: Set[bytes] = set()

    def __len__(self) -> int:
        return len(self.names)

    def intern(self, name: str, record: Record) -> int:
        """The id of ``name``, assigning the next one (and remembering
        ``record``) the first time the name is seen."""
        sid = self.ids.get(name)
        if sid is None:
            sid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.records.append(record)
        return sid

    def id_array(self, span: range) -> array:
        """``array('I', span)`` for a span of ids, sliced from one
        sequence kept per roster: every map of a cluster asks for the
        same span at bootstrap, and a slice is a memcpy."""
        sequence = self._sequence
        if len(sequence) < span.stop:
            sequence.extend(range(len(sequence), span.stop))
        return sequence[span.start : span.stop]

    def bootstrap(self, state: int, incarnation: int, now: float) -> SharedTable:
        """Every id interned so far held with this claim, changed at
        ``now``, with the record it was interned with: what each map of
        a preseeded cluster holds after :meth:`MemberMap.add_many`.
        Built once and handed to all of them read-only (``bytes``,
        read-only ``memoryview``\\ s, a ``tuple``), so a write that
        skipped :meth:`MemberMap._own` raises ``TypeError`` instead of
        reaching a neighbour. A later call for another size, claim or
        record set builds a new one; maps holding the old one keep it.
        """
        key = (len(self.names), state, incarnation, now)
        built = self._bootstrap
        if built is None or built[0] != key:
            size = key[0]
            built = self._bootstrap = key, (
                bytes((state,)) * size,
                memoryview(array("Q", (incarnation,)) * size).toreadonly(),
                memoryview(array("d", (now,)) * size).toreadonly(),
                tuple(self.records),
            )
        return built[1]

    def announce(self, sid: int, record: Record) -> None:
        """``record`` is what subject ``sid`` now says about itself: a
        later :meth:`MemberMap.add_many` seeds tables with it."""
        self.records[sid] = record
        self._bootstrap = None

    def publish(
        self,
        states: Union[bytes, bytearray],
        incarnations: Union[array, memoryview],
        records: Sequence[Optional[Record]],
    ) -> None:
        """Make the published table equal to these columns of a map, each
        covering every id interned so far (or, for a :meth:`bootstrap`
        table built before the roster last grew, every id it had: it
        holds none of the others): three comparisons when they already
        are, which is all a quiet cluster of private tables pays (a map
        still holding the bootstrap table last published does not call
        this: :meth:`MemberMap._publish` checks :attr:`published_from` by
        identity). Otherwise the ids
        that differ are found at C speed and only those are packed again
        (values copied: the roster holds nothing of the map). A claim the
        wire cannot carry raises :class:`~repro.swim.codec.CodecError`
        before anything is published.
        """
        held, numbers = self.published_states, self.published_incarnations
        if (states, incarnations, records) == (held, numbers, self.published_records):
            return
        # Only a bootstrap table holds views, each built afresh and
        # immutable: a map holding this one holds what is published. A
        # private column proves nothing by identity.
        source = incarnations if incarnations.__class__ is memoryview else None
        self.published_from = None
        short = len(held) - len(states)
        if short > 0:
            states = bytes(states) + bytes((_ABSENT,)) * short
            incarnations = array("Q", incarnations.tobytes()) + array("Q", (0,)) * short
            records = (*records, *[None] * short)
        extra = len(states) - len(held)
        if extra:
            held.extend(bytes((_ABSENT,)) * extra)
            numbers.extend(array("Q", (0,)) * extra)
            self.published_records.extend([None] * extra)
            self.entries.extend([b""] * extra)
        differ = set(_differing(states, held, 1))
        differ.update(_differing(incarnations, numbers, 8))
        if records != self.published_records:
            is_new = map(is_not, records, self.published_records)
            differ.update(compress(range(len(records)), is_new))
        fresh = [
            b""  # an id not held
            if records[sid] is None
            else pack_entry(
                self.names[sid], records[sid].address, incarnations[sid],
                states[sid], records[sid].meta,
            )
            for sid in differ
        ]
        entries, alive = self.entries, self.alive
        for sid, entry in zip(differ, fresh):
            alive.discard(entries[sid])
            held[sid] = states[sid]
            numbers[sid] = incarnations[sid]
            self.published_records[sid] = records[sid]
            entries[sid] = entry
            if states[sid] == _ALIVE:
                alive.add(entry)
        self.published_from = source

    def extend(self, entries: Iterable[Tuple[str, str, bytes, str]]) -> range:
        """Intern a batch of new ``(name, address, meta, zone)`` subjects;
        returns their id span. A name already interned (or repeated in
        the batch) raises, since its id would fall outside the span."""
        start = len(self.names)
        for name, address, meta, zone in entries:
            if name in self.ids:
                raise ValueError(f"member {name!r} already known")
            self.intern(name, Record(address, meta, zone))
        return range(start, len(self.names))
