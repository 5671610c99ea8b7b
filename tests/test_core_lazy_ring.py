"""Differential test: the lazily allocated ring against an eager one.

A :class:`CyclicQueue` allocates its slot array and pending deque on its
first insert and releases them on ``clear()``.  The reference below keeps
its storage for its whole life and is written from the section 3.1.2
rules alone: insertion-order reads, overwrite on a lap, stale heads
skipped, ``start(c, k)`` keeping the live suffix.  Hypothesis drives both
through the same random operations -- across index wrap-around, holes,
duplicate indices and laps of small rings -- and every read and every
counter must agree after every step.
"""

import tracemalloc
from typing import List, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import cyclic_queue
from repro.core.cyclic_queue import INDEX_MODULO, CyclicQueue, ring_distance
from repro.net.packet import Packet

HALF = INDEX_MODULO // 2


class EagerRing:
    """Reference ring: storage allocated up front, never released."""

    def __init__(self, size: int = INDEX_MODULO):
        self.size = size
        self.slots: List[Optional[Packet]] = [None] * size
        #: (index, packet) of every live insert, oldest first.
        self.queue: List[Tuple[int, Packet]] = []
        self.newest: Optional[int] = None
        self.inserted = self.consumed = self.overwritten = self.skipped = 0

    def _live(self, idx: int, packet: Packet) -> bool:
        return self.slots[idx % self.size] is packet

    def _settle(self) -> None:
        while self.queue and not self._live(*self.queue[0]):
            self.queue.pop(0)
            self.skipped += 1

    def insert(self, packet: Packet) -> None:
        idx = packet.wgtt_index % INDEX_MODULO
        if self.slots[idx % self.size] is not None:
            self.overwritten += 1
        self.slots[idx % self.size] = packet
        self.queue.append((idx, packet))
        self.newest = idx
        self.inserted += 1
        del self.queue[:-self.size]

    def set_read_index(self, index: int) -> None:
        k = index % INDEX_MODULO
        keep = len(self.queue)
        while keep and ring_distance(k, self.queue[keep - 1][0]) < HALF:
            keep -= 1
        for idx, packet in self.queue[:keep]:
            if self._live(idx, packet):
                self.slots[idx % self.size] = None
            self.skipped += 1
        del self.queue[:keep]

    def peek(self) -> Optional[Packet]:
        self._settle()
        return self.queue[0][1] if self.queue else None

    def pop_next(self) -> Optional[Packet]:
        packet = self.peek()
        if packet is not None:
            idx, _ = self.queue.pop(0)
            self.slots[idx % self.size] = None
            self.consumed += 1
        return packet

    @property
    def read_index(self) -> int:
        self._settle()
        if self.queue:
            return self.queue[0][0]
        return self.next_insert_index

    @property
    def next_insert_index(self) -> int:
        return 0 if self.newest is None else (self.newest + 1) % INDEX_MODULO

    def __len__(self) -> int:
        self._settle()
        return len(self.queue)

    def backlog_from(self, index: int, limit: int = INDEX_MODULO) -> int:
        self._settle()
        k = index % INDEX_MODULO
        ahead = sum(1 for idx, _ in self.queue if ring_distance(k, idx) <= HALF)
        return min(ahead, limit)

    def pending(self) -> List[Tuple[int, int]]:
        self._settle()
        return [(idx, packet.uid) for idx, packet in self.queue]

    def clear(self) -> None:
        self.slots = [None] * self.size
        self.queue = []


def pkt(index: int) -> Packet:
    p = Packet(size_bytes=100, src=1, dst=200)
    p.wgtt_index = index % INDEX_MODULO
    return p


COUNTERS = ("inserted", "consumed", "overwritten", "skipped")


def assert_same(lazy: CyclicQueue, ref: EagerRing, probe: int) -> None:
    """Every read, in one fixed order (reads settle stale heads)."""
    assert lazy.peek() is ref.peek()
    assert lazy.read_index == ref.read_index
    assert lazy.next_insert_index == ref.next_insert_index
    assert len(lazy) == len(ref)
    assert lazy.pending() == ref.pending()
    assert lazy.backlog_from(probe) == ref.backlog_from(probe)
    for name in COUNTERS:
        assert getattr(lazy, name) == getattr(ref, name), name


#: One step: (op, offset from the writer's cursor, count).  ``insert``
#: moves the cursor by the offset before its first packet: 0 rewrites
#: the newest index, a step back overwrites a pending one, a long step
#: leaves holes or crosses the half-window.
OPS = st.tuples(
    st.sampled_from(["insert", "insert", "insert", "pop", "start",
                     "backlog", "clear"]),
    st.integers(-8, 8) | st.integers(-INDEX_MODULO + 1, INDEX_MODULO - 1),
    st.integers(1, 12) | st.sampled_from([70, 300]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    size=st.sampled_from([1, 7, 64, INDEX_MODULO]),
    start=st.integers(0, INDEX_MODULO - 1),
    ops=st.lists(OPS, max_size=80),
)
@example(size=8, start=INDEX_MODULO - 3,
         ops=[("insert", 1, 20), ("pop", 0, 3), ("clear", 0, 1),
              ("insert", 1, 2), ("start", -1, 1), ("pop", 0, 5)])
@example(size=INDEX_MODULO, start=0,
         ops=[("start", 5, 1), ("backlog", 0, 1), ("clear", 0, 1),
              ("insert", 0, 1), ("insert", 0, 1), ("pop", 0, 2)])
def test_lazy_ring_matches_eager_reference(size, start, ops):
    lazy, ref = CyclicQueue(size=size), EagerRing(size=size)
    cursor = start
    assert_same(lazy, ref, cursor)
    for op, offset, n in ops:
        if op == "insert":
            for i in range(n):
                cursor = (cursor + (offset if i == 0 else 1)) % INDEX_MODULO
                p = pkt(cursor)
                lazy.insert(p)
                ref.insert(p)
        elif op == "pop":
            for _ in range(n):
                assert lazy.pop_next() is ref.pop_next()
        elif op == "start":
            lazy.set_read_index(cursor + offset)
            ref.set_read_index(cursor + offset)
        elif op == "backlog":
            k = cursor + offset
            assert lazy.backlog_from(k, n) == ref.backlog_from(k, n)
        else:
            lazy.clear()
            ref.clear()
        assert_same(lazy, ref, cursor + offset)


# ----------------------------------------------------------- storage
def ring_bytes() -> int:
    """Traced bytes currently held by allocations made in the ring module."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, cyclic_queue.__file__)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


SLOT_ARRAY_BYTES = INDEX_MODULO * 8  # one pointer per slot
#: What a released ring may still hold: boxed ints such as the insert
#: cursor, but no slot array and no pending deque.
RELEASED_BYTES = 256


def test_never_written_ring_holds_no_slot_storage():
    tracemalloc.start()
    try:
        rings = [CyclicQueue() for _ in range(50)]
        for q in rings:  # every read path, on an unallocated ring
            assert q.peek() is None and q.pop_next() is None
            assert q.read_index == q.next_insert_index == 0
            assert len(q) == 0 and q.pending() == []
            assert q.backlog_from(0) == 0
            q.set_read_index(17)
        assert ring_bytes() == 0
    finally:
        tracemalloc.stop()


def test_first_insert_allocates_and_clear_releases():
    tracemalloc.start()
    try:
        q = CyclicQueue()
        assert ring_bytes() == 0
        q.insert(pkt(4094))
        assert ring_bytes() >= SLOT_ARRAY_BYTES
        q.clear()
        assert ring_bytes() < RELEASED_BYTES
        # clear() keeps the insert cursor and the counters.
        assert q.next_insert_index == q.read_index == 4095
        assert (q.inserted, q.consumed) == (1, 0)
        assert q.pop_next() is None
        q.insert(pkt(4095))  # storage comes back with the next packet
        assert ring_bytes() >= SLOT_ARRAY_BYTES
        assert q.pop_next().wgtt_index == 4095
    finally:
        tracemalloc.stop()
