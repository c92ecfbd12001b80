"""The TransferManager API (paper §3.3).

"The TransferManager API offers a non-blocking interface to concurrent file
transfers, allowing users to probe for transfer, to wait for transfer
completion, to create barriers and to tune the level of transfers
concurrency."

The manager tracks the transfers started by the other APIs on the same host
agent (explicit ``put``/``get`` as well as the implicit transfers resolved
by the Data Scheduler), indexed by data uid.  Its waiting primitives are
generators to be yielded from inside simulation processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List

from repro.core.data import Data
from repro.core.exceptions import TransferAbortedError
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Request, Resource
from repro.transfer.oob import TransferState

if TYPE_CHECKING:  # typing-only: the runtime import goes runtime -> here
    from repro.core.runtime import HostAgent

__all__ = ["TransferManager"]


class TransferManager:
    """Non-blocking transfer control: probe, wait, barrier, concurrency."""

    def __init__(self, agent: "HostAgent", max_concurrent: int = 8) -> None:
        self.agent = agent
        self.env: Environment = agent.env
        self._slots = Resource(self.env, capacity=max_concurrent)
        self._max_concurrent = max_concurrent
        #: data uid -> list of completion events of in-flight transfers
        self._pending: Dict[str, List[Event]] = {}
        #: data uid -> last observed state
        self._states: Dict[str, TransferState] = {}
        self.completed = 0
        self.failed = 0

    # -- concurrency control -----------------------------------------------------
    @property
    def max_concurrent(self) -> int:
        return self._max_concurrent

    def set_max_concurrent(self, value: int) -> None:
        """Tune the number of simultaneous transfers this host will run."""
        if value <= 0:
            raise ValueError("max_concurrent must be positive")
        # Resources cannot shrink in place; swap in a new one (in-flight
        # transfers keep their already-granted slots).
        self._slots = Resource(self.env, capacity=value)
        self._max_concurrent = value

    def acquire_slot(self) -> Generator[Event, Any, Request]:
        """Generator: take one concurrency slot (released with release_slot)."""
        request = self._slots.request()
        yield request
        return request

    def release_slot(self, request: Request) -> None:
        # On the request's own resource: set_max_concurrent may have swapped
        # self._slots since, and waiters queued on the old one still need it.
        request.resource.release(request)

    # -- tracking -------------------------------------------------------------------
    def track(self, data: Data, completion: Event) -> Event:
        """Register an in-flight transfer of *data*; returns the same event."""
        self._pending.setdefault(data.uid, []).append(completion)
        self._states[data.uid] = TransferState.TRANSFERRING

        def _done(event: Event, uid: str = data.uid) -> None:
            events = self._pending.get(uid, [])
            if event in events:
                events.remove(event)
            if not events:
                self._pending.pop(uid, None)
            if event.ok:
                self._states[uid] = TransferState.COMPLETE
                self.completed += 1
            else:
                # The manager observed (and recorded) the failure; it must not
                # crash the simulation if nobody else is waiting on the event.
                event.defused = True
                self._states[uid] = TransferState.FAILED
                self.failed += 1

        completion.add_callback(_done)
        return completion

    # -- probing ---------------------------------------------------------------------
    def probe(self, data: Data) -> TransferState:
        """The last known state of *data*'s transfer on this host."""
        if data.uid in self._pending:
            return TransferState.TRANSFERRING
        return self._states.get(data.uid, TransferState.PENDING)

    @property
    def pending_count(self) -> int:
        return sum(len(events) for events in self._pending.values())

    def pending_data_uids(self) -> List[str]:
        return sorted(self._pending)

    # -- waiting ---------------------------------------------------------------------
    def wait_for(self, data: Data) -> Generator[Event, Any, TransferState]:
        """Generator: block until every in-flight transfer of *data* settles.

        Raises :class:`TransferAbortedError` if the transfer failed.
        Returns immediately when nothing is in flight for the datum.
        """
        events = list(self._pending.get(data.uid, []))
        for event in events:
            try:
                yield event
            except Exception as exc:  # transfer failure propagates to the waiter
                raise TransferAbortedError(
                    f"transfer of {data.name!r} failed on {self.agent.host.name}: {exc}"
                ) from exc
        if self._states.get(data.uid) is TransferState.FAILED and not events:
            raise TransferAbortedError(
                f"transfer of {data.name!r} previously failed on "
                f"{self.agent.host.name}")
        return self._states.get(data.uid, TransferState.COMPLETE)

    def waitFor(  # noqa: N802 - paper-style alias
            self, data: Data) -> Generator[Event, Any, TransferState]:
        return self.wait_for(data)

    def barrier(self) -> Generator[Event, Any, int]:
        """Generator: block until *all* transfers known to this manager settle."""
        while self._pending:
            events = [e for lst in self._pending.values() for e in lst]
            for event in events:
                try:
                    yield event
                except Exception:
                    # The barrier itself swallows individual failures; callers
                    # that care about a specific datum use wait_for().
                    pass
        return self.completed

    def wait_all(self) -> Generator[Event, Any, int]:
        """Alias of :meth:`barrier` (kept for API symmetry)."""
        return self.barrier()
