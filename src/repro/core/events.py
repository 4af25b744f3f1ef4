"""Discrete-event machinery: events and the priority event queue.

The paper's simulator (§III-A2) advances a simulation clock from a priority
queue ordered by event timestamps, with two event kinds: *message events*
(a node receives a message) and *time events* (a registered timer fires).
This module implements both, plus the queue.

Determinism: ties on the timestamp are broken by a monotonically increasing
sequence number assigned at scheduling time, giving a total order on events.
Together with seeded randomness (:mod:`repro.core.rng`) this makes every
simulation run a pure function of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Iterator

from .errors import SchedulingError
from .message import Message


@dataclass(frozen=True, slots=True)
class Event:
    """Base class for queue entries.

    Attributes:
        time: simulation time (ms) at which the event fires.
    """

    time: float


@dataclass(frozen=True, slots=True)
class MessageEvent(Event):
    """Delivery of a message to its destination node.

    The recipient is normally ``message.dest``; the dissemination fast path
    schedules one *shared* event (and message) for many recipients and
    carries each recipient in the queue entry instead (see
    :meth:`EventQueue.push_deliveries`), so n broadcast copies cost n slim
    heap entries rather than n event + message structures.

    Attributes:
        message: the message being delivered.
    """

    message: Message = field(default=None)  # type: ignore[assignment]

    def describe(self) -> str:
        return f"msg[{self.message.describe()}] deliver@{self.time:.1f}"


@dataclass(frozen=True, slots=True)
class TimeEvent(Event):
    """A timer registered by a node, the attacker, or the controller.

    Attributes:
        owner: node id for protocol timers, ``ATTACKER_OWNER`` for attacker
            timers, ``CONTROLLER_OWNER`` for controller-internal deadlines.
        name: protocol-defined label (e.g. ``"view-timeout"``).
        data: arbitrary context the owner attached when registering.
        timer_id: unique id so owners can cancel specific timers.
        cause: causal-lineage id of the event being handled when the timer
            was registered (observability metadata, never read by engine or
            protocol logic; see :attr:`repro.core.message.Message.cause`).
    """

    owner: int = 0
    name: str = ""
    data: Any = None
    timer_id: int = -1
    cause: str | None = None

    def describe(self) -> str:
        return f"timer[{self.name}#{self.timer_id} owner={self.owner}] @{self.time:.1f}"


#: Pseudo-owner ids for non-node timers.
ATTACKER_OWNER: int = -2
CONTROLLER_OWNER: int = -3


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Events pop in ``(time, insertion order)`` order.  Cancellation is lazy:
    cancelled entries stay in the heap as tombstones and are skipped on pop,
    which keeps both operations O(log n).

    Hot-path layout: each heap entry is a mutable
    ``[time, handle, event, dest]`` list.  Lists compare elementwise exactly
    like tuples (the unique handle always breaks time ties before the event
    is reached), but cancellation can tombstone an entry in place
    (``entry[2] = None``) instead of maintaining a separate membership set,
    so push and pop touch one container each instead of two.  The fourth
    slot is a per-entry delivery-destination override (``None`` for every
    ordinary event): the dissemination fast path schedules one *shared*
    :class:`MessageEvent` for a whole broadcast and puts each recipient —
    and each per-hop firing time, in ``entry[0]`` — in the entry, so a hop
    costs one four-slot list instead of an event object.  Consumers that
    need the override use :meth:`pop_entry`; :meth:`pop` stays the
    event-only view.
    """

    __slots__ = ("_heap", "_entries", "_next_handle")

    def __init__(self) -> None:
        self._heap: list[list] = []
        #: live handle -> its heap entry; the single source of truth for
        #: queue membership (tombstoned and popped entries are absent).
        self._entries: dict[int, list] = {}
        self._next_handle = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, event: Event) -> int:
        """Schedule ``event``; returns a handle usable with :meth:`cancel`."""
        time = event.time
        if time < 0:
            raise SchedulingError(f"event scheduled at negative time {time}")
        handle = self._next_handle
        self._next_handle = handle + 1
        entry = [time, handle, event, None]
        self._entries[handle] = entry
        heappush(self._heap, entry)
        return handle

    def push_deliveries(
        self,
        event: "MessageEvent",
        times: "Iterable[float]",
        dests: "Iterable[int]",
    ) -> None:
        """Schedule one *shared* delivery event at many ``(time, dest)`` pairs.

        The broadcast fast path's bulk insert: every pair gets its own
        handle (same sequence and tie-breaking as per-event :meth:`push`)
        and its own heap entry carrying the recipient, but all entries alias
        the single ``event``.  Dispatch must read the recipient and firing
        time from the entry (:meth:`pop_entry`), never from the shared
        event.
        """
        entries = self._entries
        heap = self._heap
        handle = self._next_handle
        try:
            for time, dest in zip(times, dests):
                if time < 0:
                    raise SchedulingError(f"event scheduled at negative time {time}")
                entry = [time, handle, event, dest]
                entries[handle] = entry
                heappush(heap, entry)
                handle += 1
        finally:
            self._next_handle = handle

    #: Tombstone-compaction trigger: once the heap holds more dead entries
    #: than live ones (and more than this floor), it is rebuilt from the
    #: live set.  Keeps pop cost O(log live) under cancellation churn — a
    #: protocol at n = 1000 cancels hundreds of thousands of timers — while
    #: staying amortized O(1) per cancel.
    COMPACT_MIN_TOMBSTONES = 64

    def cancel(self, handle: int) -> None:
        """Cancel a previously pushed event.

        Cancelling twice, or cancelling an already-popped handle, is a no-op:
        protocols routinely cancel timers that may have just fired.
        """
        entry = self._entries.pop(handle, None)
        if entry is not None:
            entry[2] = None
            dead = len(self._heap) - len(self._entries)
            if dead > self.COMPACT_MIN_TOMBSTONES and dead > len(self._entries):
                self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries, dropping every tombstone.

        Entry lists are kept (``_entries`` still points at them); only the
        heap arrangement changes, and the pop order is untouched — events
        compare by ``(time, handle)``, a total order independent of heap
        layout.
        """
        live = [entry for entry in self._heap if entry[2] is not None]
        heapify(live)
        self._heap = live

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        return self.pop_entry()[2]

    def pop_entry(self) -> list:
        """Remove and return the earliest live entry ``[time, handle, event,
        dest]``.

        The engine's run loop uses this instead of :meth:`pop`: for shared
        broadcast deliveries (:meth:`push_deliveries`) the authoritative
        firing time and recipient live in the entry, not the event.
        ``dest`` is ``None`` for ordinary events.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[2] is None:
                continue
            del self._entries[entry[1]]
            return entry
        raise SchedulingError("pop from an empty event queue")

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` when empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None:
                heappop(heap)
                continue
            return entry[0]
        return None

    def cancel_if(self, predicate: "Callable[[Event], bool]") -> int:
        """Cancel every live event satisfying ``predicate``; returns count.

        O(queue size); used for rare structural operations such as a node
        crash discarding that node's pending timers.
        """
        removed = 0
        entries = self._entries
        for entry in self._heap:
            event = entry[2]
            if event is not None and predicate(event):
                entry[2] = None
                del entries[entry[1]]
                removed += 1
        dead = len(self._heap) - len(entries)
        if dead > self.COMPACT_MIN_TOMBSTONES and dead > len(entries):
            self._compact()
        return removed

    def live_count(self, event_type: type) -> int:
        """Number of live events of exactly ``event_type``.

        O(queue size); used by the metrics registry's in-flight-messages
        gauge, which samples at interval boundaries, never per event.
        """
        return sum(
            1 for entry in self._entries.values() if type(entry[2]) is event_type
        )

    def live_events(self) -> list[Event]:
        """Every live (non-cancelled) event in firing order, without popping.

        Diagnostic view used by the liveness watchdog's pending-event
        census; O(n log n), never on the hot path.
        """
        entries = sorted(self._entries.values(), key=lambda e: (e[0], e[1]))
        return [entry[2] for entry in entries]

    def drain(self) -> Iterator[Event]:
        """Pop every remaining live event, in order (mainly for tests)."""
        while self:
            yield self.pop()
