"""Core discrete-event simulation kernel.

The kernel is deliberately small and dependency-free.  It provides:

* :class:`Environment` — virtual clock + event queue + ``run`` loop.
* :class:`Event` — a one-shot waitable with a value and success flag.
* :class:`Timeout` — an event that fires after a simulated delay.
* :class:`Process` — wraps a generator; the generator yields events and is
  resumed with the event's value (or has the event's exception thrown in).
* :class:`AllOf` — condition event over several events.

Determinism: events scheduled for the same simulated time are processed in
FIFO order of scheduling (a monotonically increasing sequence number breaks
ties), so a simulation with a fixed RNG seed is fully reproducible.

The queue itself is :class:`repro.sim.scheduler.HeapScheduler`, one binary
heap over the total ``(time, priority, seq)`` order.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Generator, Iterable, Iterator, List,
                    Optional)

from repro.sim.scheduler import HeapScheduler

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "ProcessGenerator",
    "SimulationError",
    "Timeout",
    "Timer",
]

#: The shape of a simulated process body: yields events, is resumed with
#: each event's value, and may ``return`` a final result.
ProcessGenerator = Generator["Event", Any, Any]

#: An event callback, invoked with the processed event.
Callback = Callable[["Event"], None]


class SimulationError(RuntimeError):
    """Raised for kernel usage errors (double trigger, bad yield, ...)."""


#: The value of an event that has not been triggered yet.
_PENDING = object()


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*.  ``succeed(value)`` or ``fail(exception)``
    triggers it; the environment then schedules its callbacks.  Waiting on an
    already-processed event is allowed and resumes the waiter at the current
    instant.
    """

    #: Set by :meth:`Timer.cancel`; cancelled events are skipped (and lazily
    #: removed from the heap) instead of running their callbacks.  A class
    #: attribute, not a slot: only :class:`Timer` instances (which carry a
    #: ``__dict__``) ever set it, and every other event reads the shared
    #: ``False`` for free.
    cancelled: bool = False

    #: At 100k-host scale the kernel creates ~10⁶ events per run; dropping
    #: the per-instance ``__dict__`` makes creation and the hot attribute
    #: reads in the run loop measurably cheaper.  Subclasses that add state
    #: (Timer, Process, conditions, resources) simply omit ``__slots__``
    #: and get a ``__dict__`` back automatically.
    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "_eid",
                 "__weakref__")

    def __init__(self, env: "Environment") -> None:
        # Keep this block in lockstep with Timeout.__init__, which inlines
        # it (plus scheduling) to shave two calls per timer tick.
        self.env = env
        self.callbacks: Optional[List[Callback]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: True once the exception carried by a failed event has been
        #: delivered to at least one waiter (or defused explicitly).
        self.defused = False
        #: Per-environment creation sequence number: a stable identity for
        #: reprs and traces.  A memory address (``id``) here would make any
        #:  debug output containing an event repr differ across runs.
        self._eid = next(env._event_ids)

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will have it raised."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    # -- misc --------------------------------------------------------------
    def _push_callback(self, callback: Callback) -> None:
        """Append to the pending callback list (the event must be unprocessed)."""
        callbacks = self.callbacks
        if callbacks is None:
            raise SimulationError(f"{self!r} is already processed")
        callbacks.append(callback)

    def add_callback(self, callback: Callback) -> None:
        if self.callbacks is None:
            # Already processed: run at this instant with the same outcome.
            self.env._call_soon(callback, ok=self._ok, value=self._value)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} #{self._eid}>"


class Timeout(Event):
    """Event that fires after ``delay`` units of simulated time."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Event.__init__ and Environment._schedule, inlined: a timeout is
        # created for every heartbeat tick of a 100k-host cohort run, so
        # the two extra calls (and the overwritten _PENDING defaults) are
        # measurable.  Keep in lockstep with both.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self._eid = next(env._event_ids)
        env._scheduler.push((env._now + delay, 1, next(env._counter), self))


class Timer(Event):
    """A cancellable scheduled callback.

    Unlike :class:`Timeout`, a timer can be revoked with :meth:`cancel`
    before it fires; the heap entry is removed lazily, so components that
    frequently reschedule wake-ups (the flow network's completion timer) do
    not accumulate stale entries that each must be popped and filtered with
    a token check.
    """

    def __init__(self, env: "Environment", delay: float,
                 callback: Optional[Callback] = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self._ok = True
        self._value = None
        if callback is not None:
            self._push_callback(callback)
        env._schedule(self, delay=delay)

    def cancel(self) -> bool:
        """Revoke the timer; returns False if it already fired."""
        if self.processed:
            return False
        if not self.cancelled:
            self.cancelled = True
            self.callbacks = []
            # Let the scheduler account for the dead entry (it compacts the
            # queue when cancelled entries outnumber the live ones).
            self.env._scheduler.note_cancelled()
        return True


class Process(Event):
    """Wraps a generator so it can be driven by the event loop.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes (or fails with the escaping exception),
    so processes can wait on each other.
    """

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The resume callback, bound once: it is registered on every event
        #: the process waits for, and binding it per yield is pure overhead.
        self._resume_cb: Callback = self._resume
        env._call_soon(self._resume_cb)    # the first resume

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    # -- driving ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        generator = self._generator
        while True:
            if event._ok:
                try:
                    next_target = generator.send(event._value)
                except StopIteration as stop:
                    self._terminate(True, stop.value)
                    return
                except BaseException as exc:
                    self._terminate(False, exc)
                    return
            else:
                event.defused = True
                try:
                    next_target = generator.throw(event._value)
                except StopIteration as stop:
                    self._terminate(True, stop.value)
                    return
                except BaseException as exc:
                    # Either the process let the failure escape, or it
                    # raised a different exception while handling it;
                    # both terminate the process as failed.
                    self._terminate(False, exc)
                    return
            if not isinstance(next_target, Event):
                raise SimulationError(
                    f"process yielded a non-event: {next_target!r}"
                )
            # ``processed``/``add_callback``, inlined: this is the one
            # call per process yield, and an unprocessed target (the
            # overwhelmingly common case) only needs the append.
            callbacks = next_target.callbacks
            if callbacks is None:
                # Already-resolved event: loop immediately with its value.
                event = next_target
                continue
            callbacks.append(self._resume_cb)
            return

    def _terminate(self, ok: bool, value: Any) -> None:
        if ok:
            self.succeed(value)
        else:
            if isinstance(value, (SystemExit, KeyboardInterrupt)):  # pragma: no cover
                raise value
            self.fail(value)


class AllOf(Event):
    """Triggers once all events have triggered (fails fast on any failure)."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.add_callback(self._check)

    def _collect(self) -> Dict[Event, Any]:
        return {
            ev: ev._value
            for ev in self.events
            if ev._value is not _PENDING and ev._ok
        }

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:   # triggered, inlined: hot path
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class Environment:
    """The simulation environment: virtual clock, queue and run loop."""

    #: Priority of :meth:`settle` callbacks: they run after every
    #: normally-scheduled event at the same timestamp.
    SETTLE_PRIORITY = 2

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._scheduler = HeapScheduler()
        self._counter: Iterator[int] = itertools.count()
        #: Event creation counter, separate from the scheduling counter so
        #: repr identities never perturb the (time, priority, seq) order.
        self._event_ids = itertools.count(1)
        #: Number of events processed by :meth:`run` (benchmark metric).
        self.processed_events = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention across the library)."""
        return self._now

    @property
    def scheduler(self) -> HeapScheduler:
        """The live event queue."""
        return self._scheduler

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_later(self, delay: float, callback: Callback) -> Timer:
        """Schedule *callback* after *delay*; returns a cancellable Timer."""
        return Timer(self, delay, callback)

    def settle(self, callback: Callback) -> Event:
        """Run *callback* at the current instant, after every event already
        queued for this timestamp (including ones those events schedule).

        This is the coalescing hook: a component can absorb a burst of
        same-time changes (e.g. hundreds of flow arrivals during a
        synchronisation storm) and settle its derived state exactly once.
        """
        return self._call_soon(callback, priority=self.SETTLE_PRIORITY)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._scheduler.push(
            (self._now + delay, priority, next(self._counter), event)
        )

    def _call_soon(self, callback: Callback, priority: int = 1,
                   ok: Optional[bool] = True, value: Any = None) -> Event:
        """Run *callback* at the current instant, carried by an
        already-triggered event with outcome (*ok*, *value*)."""
        event = Event(self)
        event._ok = ok
        event._value = value
        event._push_callback(callback)
        self._schedule(event, priority=priority)
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        entry = self._scheduler.peek()
        return entry[0] if entry is not None else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run until that
        simulated time: events at exactly ``until`` run, a later one stays
        queued, and ``now == until`` afterwards), or an :class:`Event` (run
        until it is processed, and return its value / raise its exception).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time!r} is in the past (now={self._now!r})"
                )

        # One loop for all three modes.  pop() skips cancelled timers itself
        # and signals exhaustion via IndexError; an entry due after the
        # deadline goes back unchanged — its seq is unique, so it returns to
        # exactly its place in the (time, priority, seq) order.
        scheduler = self._scheduler
        scheduler_pop = scheduler.pop
        while stop_event is None or stop_event.callbacks is not None:
            try:
                when, prio, seq, event = scheduler_pop()
            except IndexError:
                break
            if when > stop_time:
                scheduler.push((when, prio, seq, event))
                break
            self._now = when
            self.processed_events += 1
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks or ():
                callback(event)
            if event._ok is False and not event.defused:
                # An untended failure (no one waited): surface it.
                raise event._value

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run() terminated before the stop event was triggered"
                )
            if stop_event._ok:
                return stop_event._value
            stop_event.defused = True
            raise stop_event._value
        if until is not None:   # nothing is due before the deadline
            self._now = stop_time
        return None
