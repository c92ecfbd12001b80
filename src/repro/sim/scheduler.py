"""The event queue of the simulation kernel.

The kernel's queue discipline is a total order over ``(time, priority,
seq)`` — FIFO within a timestamp, a priority only for the settle hook.
:class:`HeapScheduler` realises it with one global binary
heap (`heapq`): O(log n) per operation with n the queue size.  Cohort
multiplexing keeps that queue shallow — the peak depth is ~2.5k entries
even on the 100k-host storm — so C ``heapq`` at log2(n) ≈ 11 comparisons
beats a Python-level bucket structure (sizing in docs/ARCHITECTURE.md).

Cancelled :class:`~repro.sim.kernel.Timer` entries are dropped lazily
when they surface, and the whole heap is compacted once more than half
of it is dead (see :meth:`HeapScheduler.note_cancelled`) so a
timer-heavy workload cannot squat the queue with corpses.

Entries are the kernel's scheduling tuples ``(time, priority, seq,
event)``; ``seq`` is unique, so the order is total.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # typing-only: the runtime import goes kernel -> scheduler
    from repro.sim.kernel import Event

__all__ = ["Entry", "HeapScheduler"]

#: A scheduling entry: (time, priority, seq, event).
Entry = Tuple[float, int, int, "Event"]


class HeapScheduler:
    """The kernel's event queue: a single global binary heap."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        #: cancelled Timer entries still buried in the heap
        self._cancelled = 0
        #: number of whole-queue compactions (benchmark/test metric)
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry: Entry) -> None:
        heapq.heappush(self._heap, entry)

    def peek(self) -> Optional[Entry]:
        """The next live entry without removing it (purges dead heads)."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0] if heap else None

    def pop(self) -> Entry:
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[3].cancelled:
                self._cancelled -= 1
                continue
            return entry
        raise IndexError("pop from an empty scheduler")

    def note_cancelled(self) -> None:
        """A queued Timer was cancelled; compact once corpses dominate.

        Lazy deletion alone lets a reschedule-heavy component (the flow
        network's completion timer, watchdogs) fill the heap with dead
        entries that each still cost O(log n) to sift around.  When more
        than half the heap is cancelled, one O(n) sweep rebuilds it.
        """
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap):
            self.compact()

    def compact(self) -> None:
        self._heap = [e for e in self._heap if not e[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1
