"""The shared-resource primitive of the simulation kernel.

:class:`Resource` is a counted resource with FIFO queueing (the database
connection pool, FTP/HTTP server connection limits, the transfer
manager's concurrency slots).

A request is an event; processes ``yield`` it.  Requests support use as
context managers inside a process::

    with resource.request() as req:
        yield req
        ... critical section ...
"""

from __future__ import annotations

from collections import deque
from types import TracebackType
from typing import Deque, List, Optional, Type

from repro.sim.kernel import Environment, Event

__all__ = ["Resource"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger_requests()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc_val: Optional[BaseException],
                 exc_tb: Optional[TracebackType]) -> bool:
        self.resource.release(self)
        return False


class Resource:
    """A resource with ``capacity`` slots and FIFO admission."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._queue: Deque[Request] = deque()
        self._users: List[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        """Release a previously granted slot (no-op if never granted)."""
        if request in self._users:
            self._users.remove(request)
        elif request in self._queue:
            # Cancelled before being granted.
            self._queue.remove(request)
        self._trigger_requests()

    def _trigger_requests(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.popleft()
            self._users.append(request)
            request.succeed(self)
