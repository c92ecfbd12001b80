"""Timeout-based failure detector for volatile hosts (paper §3.1, §4.4).

"Failures of volatile nodes is detected by the mean of timeout on periodical
heartbeats" — in the Figure 4 experiment the timeout is three heartbeat
periods (heartbeat 1 s, so a crash is noticed after ~3 s).

The detector is passive: services record heartbeats (every reservoir
synchronisation counts as one), and a periodic sweep declares hosts whose
last heartbeat is older than ``timeout_multiplier x period`` dead, invoking
the registered callbacks (the Data Scheduler uses this to trigger replica
repair for fault-tolerant data; the service fabric uses a second detector
over the *service* hosts to drive shard failover).

**Sweep cost.**  The sweep pops an expiry heap instead of scanning every
tracked host: each alive host keeps exactly one heap row carrying the
expiry deadline recorded when the row was pushed.  A popped row whose host
heartbeated since is re-armed with the refreshed deadline, so one sweep
does O(newly-dead + refreshed · log n) work — at production host counts the
periodic sweep no longer touches every host several times per heartbeat
period.  Newly dead hosts are declared in tracking order (the order the
old linear scan produced), so callback sequences are unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Environment

__all__ = ["FailureDetector", "HostLiveness"]


@dataclass
class HostLiveness:
    """What the detector knows about one host."""

    host_name: str
    last_heartbeat: float
    alive: bool = True
    declared_dead_at: Optional[float] = None
    #: tracking sequence number; identifies this incarnation of the host
    #: (``forget`` + re-heartbeat restarts it) and orders death callbacks.
    seq: int = 0


class FailureDetector:
    """Heartbeat bookkeeping + periodic timeout sweep."""

    def __init__(self, env: Environment, heartbeat_period_s: float = 1.0,
                 timeout_multiplier: float = 3.0, sweep_period_s: Optional[float] = None):
        if heartbeat_period_s <= 0:
            raise ValueError("heartbeat_period_s must be positive")
        if timeout_multiplier <= 0:
            raise ValueError("timeout_multiplier must be positive")
        self.env = env
        self.heartbeat_period_s = float(heartbeat_period_s)
        self.timeout_multiplier = float(timeout_multiplier)
        self.sweep_period_s = (
            float(sweep_period_s) if sweep_period_s is not None
            else self.heartbeat_period_s / 2.0
        )
        self._hosts: Dict[str, HostLiveness] = {}
        self._seq = itertools.count()
        #: (deadline, seq, host_name, heartbeat_at) rows, one live row per
        #: alive host; rows are validated against the entry's seq on pop
        #: (lazy deletion).  ``heartbeat_at`` carries the exact heartbeat
        #: time the row was armed with, so the sweep's timeout predicate is
        #: applied to the same float the linear scan would have used.
        self._expiry_heap: List[Tuple[float, int, str, float]] = []
        self._on_failure: List[Callable[[str], None]] = []
        self._on_recovery: List[Callable[[str], None]] = []
        self._running = False
        #: bumped by every start(); a sweep loop exits when it observes a
        #: newer epoch, so stop()+start() never leaves two loops sweeping.
        self._epoch = 0
        #: statistics (the scale benchmarks pin the sweep's examined count)
        self.sweeps = 0
        self.sweep_examined = 0

    # -- configuration ---------------------------------------------------------
    @property
    def timeout_s(self) -> float:
        return self.heartbeat_period_s * self.timeout_multiplier

    def on_failure(self, callback: Callable[[str], None]) -> None:
        self._on_failure.append(callback)

    def on_recovery(self, callback: Callable[[str], None]) -> None:
        self._on_recovery.append(callback)

    # -- heartbeats ---------------------------------------------------------------
    def _arm(self, entry: HostLiveness) -> None:
        heapq.heappush(self._expiry_heap,
                       (entry.last_heartbeat + self.timeout_s,
                        entry.seq, entry.host_name, entry.last_heartbeat))

    def heartbeat(self, host_name: str) -> None:
        """Record a heartbeat (any message from the host counts)."""
        entry = self._hosts.get(host_name)
        now = self.env.now
        if entry is None:
            entry = HostLiveness(host_name, now, seq=next(self._seq))
            self._hosts[host_name] = entry
            self._arm(entry)
            return
        entry.last_heartbeat = now
        if not entry.alive:
            entry.alive = True
            entry.declared_dead_at = None
            # A dead entry holds no live heap row; revival re-arms it.
            self._arm(entry)
            for callback in list(self._on_recovery):
                callback(host_name)

    def forget(self, host_name: str) -> None:
        """Stop tracking a host (graceful departure)."""
        self._hosts.pop(host_name, None)

    # -- queries ----------------------------------------------------------------------
    def is_alive(self, host_name: str) -> bool:
        entry = self._hosts.get(host_name)
        return bool(entry and entry.alive)

    def known_hosts(self) -> List[str]:
        return sorted(self._hosts)

    def liveness(self, host_name: str) -> Optional[HostLiveness]:
        return self._hosts.get(host_name)

    # -- the sweep -----------------------------------------------------------------------
    def _timed_out(self, last_heartbeat: float, now: float) -> bool:
        """The death predicate — one definition for heap rows and entries."""
        return now - last_heartbeat > self.timeout_s

    def sweep(self) -> List[str]:
        """Declare dead every host whose heartbeat timed out; return their names."""
        now = self.env.now
        self.sweeps += 1
        heap = self._expiry_heap
        dead_entries: List[HostLiveness] = []
        # Rows are ordered by the deadline recorded at push time; pop while
        # that recorded deadline has passed.  A popped row whose host
        # heartbeated since the push is re-armed with the fresh deadline
        # instead of dying, so each alive host is examined at most once per
        # timeout interval — not once per sweep.
        while heap and self._timed_out(heap[0][3], now):
            _deadline, seq, name, _beat = heapq.heappop(heap)
            self.sweep_examined += 1
            entry = self._hosts.get(name)
            if entry is None or entry.seq != seq or not entry.alive:
                continue  # forgotten, re-tracked, or stale row of a dead host
            if self._timed_out(entry.last_heartbeat, now):
                entry.alive = False
                entry.declared_dead_at = now
                dead_entries.append(entry)
            else:
                self._arm(entry)
        # Fire callbacks in tracking order, as the linear scan did.
        dead_entries.sort(key=lambda e: e.seq)
        newly_dead = [entry.host_name for entry in dead_entries]
        for name in newly_dead:
            for callback in list(self._on_failure):
                callback(name)
        return newly_dead

    def start(self) -> None:
        """Start the periodic sweep process (idempotent).

        ``stop()`` followed by ``start()`` hands sweeping over to a fresh
        loop: the epoch bump makes the old loop — possibly still pending on
        its sweep-period timeout — exit on wake-up instead of resuming,
        which previously left two concurrent sweep loops running.
        """
        if self._running:
            return
        self._running = True
        self._epoch += 1
        self.env.process(self._sweep_loop(self._epoch))

    def stop(self) -> None:
        self._running = False

    def _sweep_loop(self, epoch: int):
        while self._running and self._epoch == epoch:
            yield self.env.timeout(self.sweep_period_s)
            if self._epoch != epoch:
                break  # a newer start() owns sweeping now
            self.sweep()
