"""The WGTT per-client cyclic queue (section 3.1.2).

Every AP within range of a client buffers every downlink packet for that
client in a ring indexed by the controller-assigned *m*-bit index number
(m = 12, so 4096 slots).  Because all APs hold the same ring contents, a
switch only has to communicate a single integer -- the index ``k`` of the
first unsent packet -- for the new AP to resume exactly where the old one
stopped.

Implementation note: the 12-bit index wraps every 4096 packets, so index
arithmetic alone cannot distinguish "the reader is waiting for a packet
that has not arrived" from "the writer lapped the reader".  The backhaul
is FIFO per (controller, AP) pair, so insertion order *is* controller
order; the queue therefore keeps the pending indices in an insertion-order
deque and serves strictly from its head, which is unambiguous across any
number of wraps.

The controller sends each indexed packet once: every in-range AP is
handed the *same* packet object with its own backhaul arrival time.  An
AP that is not serving the client only needs the packet in its ring by
the time it next reads the ring, so it parks the packet in an
:class:`ArrivalLog` (no event) and folds the arrived prefix into its
rings on every read.  Only the serving AP gets a wake-up per packet.

Every AP holds a ring for every client in range, but only the rings the
controller's downlink reaches are ever written: a city vehicle is
pre-associated with every AP on its route, and a client with no downlink
traffic feeds none of them.  A ring therefore allocates its slot array
and pending deque on its first insert and releases them on
:meth:`CyclicQueue.clear`; until then it answers every read exactly as
an empty allocated ring would.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from operator import itemgetter
from typing import Deque, List, Optional, Tuple, Union

from ..net.packet import Packet

__all__ = ["ArrivalLog", "CyclicQueue", "INDEX_BITS", "INDEX_MODULO",
           "ring_distance"]

INDEX_BITS = 12
INDEX_MODULO = 1 << INDEX_BITS

#: Pending-queue entries pack (ring index, packet uid) into one machine
#: int -- ``idx << _UID_BITS | uid`` -- so the hot writer path appends a
#: small int instead of allocating a tuple per packet.  48 uid bits is
#: unreachable in practice (one uid per simulated packet).
_UID_BITS = 48
_UID_MASK = (1 << _UID_BITS) - 1

#: The pending entries of a ring with no storage: empty, immutable and
#: shared, so every read path serves an unallocated ring unchanged.
_NO_PENDING: Tuple[int, ...] = ()


def ring_distance(a: int, b: int) -> int:
    """Forward distance from index ``a`` to index ``b`` on the ring."""
    return (b - a) % INDEX_MODULO


class CyclicQueue:
    """Ring buffer of downlink packets, keyed by the WGTT index number.

    Writers (the backhaul receive path) insert packets at their assigned
    index; the reader (the transmit path, active only at the serving AP)
    consumes in insertion order from the position set by the last
    ``start(c, k)``.  Slots are overwritten as the index space wraps,
    which implicitly discards packets other APs already delivered -- no
    per-packet invalidation traffic is needed.

    The slot array and the pending deque exist only between the first
    insert and the next :meth:`clear`.
    """

    def __init__(self, size: int = INDEX_MODULO):
        if size <= 0 or size > INDEX_MODULO:
            raise ValueError(f"ring size must be in (0, {INDEX_MODULO}], got {size}")
        self._size = size
        #: Slot storage, allocated by the first insert (None until then).
        self._slots: Optional[List[Optional[Packet]]] = None
        #: Packed (index, uid) entries with a live packet, in insertion
        #: (== controller) order; ``_NO_PENDING`` while unallocated.
        self._pending: Union[Deque[int], Tuple[int, ...]] = _NO_PENDING
        self._newest_index = 0
        self.inserted = 0
        self.consumed = 0
        self.overwritten = 0
        self.skipped = 0

    @property
    def size(self) -> int:
        return self._size

    @property
    def read_index(self) -> int:
        """Index of the next packet the transmit path will take.

        With nothing pending this is the index one past the newest insert
        (i.e. where the next packet will logically resume).
        """
        self._drop_stale_head()
        if self._pending:
            return self._pending[0] >> _UID_BITS
        if self.inserted:
            return (self._newest_index + 1) % INDEX_MODULO
        return 0

    @property
    def next_insert_index(self) -> int:
        """Index at which the controller's next downlink packet would land.

        This is what a degraded AP reports as the safe resume point for a
        recovering controller's index assignment: everything at or after
        it is guaranteed not to collide with stored ring contents.
        """
        if self.inserted:
            return (self._newest_index + 1) % INDEX_MODULO
        return 0

    def __len__(self) -> int:
        self._drop_stale_head()
        return len(self._pending)

    # ---------------------------------------------------------------- writer
    def insert(self, packet: Packet) -> None:
        """Store a packet at its controller-assigned index."""
        if packet.wgtt_index is None:
            raise ValueError("packet has no WGTT index; controller must assign one")
        idx = packet.wgtt_index % INDEX_MODULO
        slots = self._slots
        if slots is None:
            slots = self._slots = [None] * self._size
            self._pending = deque()
        slot = idx % self._size
        if slots[slot] is not None:
            self.overwritten += 1
        slots[slot] = packet
        self._pending.append((idx << _UID_BITS) | (packet.uid & _UID_MASK))
        self._newest_index = idx
        self.inserted += 1
        # Bound the pending list: anything a full ring behind has been
        # overwritten and can never be served.
        while len(self._pending) > self._size:
            self._pending.popleft()

    # ---------------------------------------------------------------- reader
    def set_read_index(self, index: int) -> None:
        """Jump the reader (the start(c, k) handler calls this with k).

        Everything inserted before the entry carrying index ``k`` is
        discarded: the old AP has already delivered (or owned) it.  ``k``
        is always near the live head of the stream (it is the old AP's
        current unsent position, at most a switch-latency old), so the
        live suffix is found by scanning back from the newest insert while
        entries stay inside the forward half-window of ``k`` -- entries
        further back are a previous serving stint or a previous index lap.
        """
        k = index % INDEX_MODULO
        entries = list(self._pending)
        keep_from = len(entries)
        for pos in range(len(entries) - 1, -1, -1):
            idx = entries[pos] >> _UID_BITS
            if ring_distance(k, idx) < INDEX_MODULO // 2:
                keep_from = pos
            else:
                break
        for _ in range(keep_from):
            self._discard_head()

    def _discard_head(self) -> None:
        entry = self._pending.popleft()
        head_idx, head_uid = entry >> _UID_BITS, entry & _UID_MASK
        slot = head_idx % self._size
        packet = self._slots[slot]
        if packet is not None and (packet.uid & _UID_MASK) == head_uid:
            self._slots[slot] = None
        self.skipped += 1

    def _drop_stale_head(self) -> None:
        """Drop pending entries whose slot was overwritten by a newer insert."""
        while self._pending:
            entry = self._pending[0]
            packet = self._slots[(entry >> _UID_BITS) % self._size]
            if packet is not None and (packet.uid & _UID_MASK) == entry & _UID_MASK:
                return
            self._pending.popleft()
            self.skipped += 1

    def peek(self) -> Optional[Packet]:
        """The next packet in insertion order, if any."""
        self._drop_stale_head()
        if not self._pending:
            return None
        return self._slots[(self._pending[0] >> _UID_BITS) % self._size]

    def pop_next(self) -> Optional[Packet]:
        """Consume the next pending packet (insertion order)."""
        packet = self.peek()
        if packet is None:
            return None
        head_idx = self._pending.popleft() >> _UID_BITS
        self._slots[head_idx % self._size] = None
        self.consumed += 1
        return packet

    # ------------------------------------------------------------- inspection
    def backlog_from(self, index: int, limit: int = INDEX_MODULO) -> int:
        """How many pending packets sit at or after ``index``."""
        self._drop_stale_head()
        count = 0
        k = index % INDEX_MODULO
        for entry in self._pending:
            idx = entry >> _UID_BITS
            if idx == k or ring_distance(k, idx) <= INDEX_MODULO // 2:
                count += 1
                if count >= limit:
                    break
        return count

    def pending(self) -> List[Tuple[int, int]]:
        """The queued (index, uid) entries, head first."""
        self._drop_stale_head()
        return [(e >> _UID_BITS, e & _UID_MASK) for e in self._pending]

    def clear(self) -> None:
        """Drop every stored packet and release the slot storage.

        The insert cursor (``next_insert_index``) and the counters stay.
        """
        self._slots = None
        self._pending = _NO_PENDING


#: One posted downlink packet: (arrival time, shared packet, sender node).
Arrival = Tuple[float, Packet, int]

_arrival_time = itemgetter(0)


class ArrivalLog:
    """Downlink packets posted to one AP and not yet folded into its rings.

    Entries stay in arrival order.  The backhaul is FIFO per sender, so
    a post is an append unless two controllers feed the AP (an HA
    takeover), when it is sorted in.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Deque[Arrival] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def post(self, t: float, packet: Packet, src: int) -> None:
        entries = self._entries
        if entries and t < entries[-1][0]:
            insort(entries, (t, packet, src), key=_arrival_time)
        else:
            entries.append((t, packet, src))

    def pop_arrived(self, now: float) -> List[Arrival]:
        """Remove and return, in arrival order, every entry due by ``now``."""
        entries = self._entries
        arrived = []
        while entries and entries[0][0] <= now:
            arrived.append(entries.popleft())
        return arrived

    def pop_client(self, client: int) -> List[Arrival]:
        """Remove and return, in arrival order, every entry for ``client``."""
        entries = self._entries
        mine = [e for e in entries if e[1].dst == client]
        if mine:
            self._entries = deque(e for e in entries if e[1].dst != client)
        return mine
