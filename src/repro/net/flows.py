"""Flow-level bandwidth-sharing network model.

Transfers are modelled as *fluid flows*.  Each flow has a source host, a
destination host, a size (MB) and a remaining volume.  At any instant every
active flow receives a rate determined by **max-min fair sharing** subject to
capacity constraints:

* the source host's uplink capacity,
* the destination host's downlink capacity,
* optionally, per-cluster WAN gateway capacities (egress and ingress) for
  flows crossing cluster boundaries — this is how the Grid'5000 multi-cluster
  topology of Table 1 is modelled.

Whenever the set of active flows changes (a flow starts, finishes, or is
aborted because a host failed) the allocation must be recomputed and the
next completion rescheduled.  Two design decisions keep that hot path
proportional to what changed rather than to global state:

* **Coalescing** — a flow arrival/departure marks the network *dirty* and
  the allocation settles exactly once per timestamp via the kernel's
  same-time settle hook.  A synchronisation storm in which hundreds of
  workers start downloads at the same instant therefore triggers a single
  allocation pass instead of one full recompute per flow.  Rates are only
  consumed when simulated time advances, so deferring the pass to the end
  of the timestamp is observationally identical.
* **Allocator strategies** — the actual max-min computation lives in
  :mod:`repro.net.allocation`; the default :class:`IncrementalAllocator`
  maintains constraint membership across events, the reference
  :class:`DenseAllocator` rebuilds everything per pass (the two are
  equivalence-tested against each other).

The next-completion wake-up uses a cancellable kernel :class:`Timer`
instead of the earlier stale-token pattern, so superseded wake-ups are
dropped from the heap lazily instead of firing as no-ops.

Control-plane traffic (the BitDew protocol's heartbeats and transfer-monitor
messages, §4.3 of the paper) is modelled as *background load*: a reserved
rate subtracted from a constraint's capacity, see
:meth:`Network.add_background_load`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.sim import ids
from repro.sim.kernel import Environment, Event, Timer
from repro.net.allocation import make_allocator
from repro.net.host import Host

__all__ = ["Flow", "Network", "TransferFailed"]

#: Rates below this (MB/s) are treated as zero to avoid numerical dust.
_EPSILON = 1e-12


class TransferFailed(Exception):
    """Raised (through the flow's event) when a transfer is aborted."""

    def __init__(self, flow: "Flow", reason: str):
        super().__init__(f"transfer {flow.label or flow.fid} failed: {reason}")
        self.flow = flow
        self.reason = reason


class Flow:
    """One fluid transfer between two hosts."""

    def __init__(self, env: Environment, src: Host, dst: Host, size_mb: float,
                 label: Optional[str] = None,
                 rate_cap_mbps: Optional[float] = None):
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        if rate_cap_mbps is not None and rate_cap_mbps <= 0:
            raise ValueError("rate_cap_mbps must be positive")
        self.fid = next(ids.flows)
        self.env = env
        self.src = src
        self.dst = dst
        self.size_mb = float(size_mb)
        self.remaining_mb = float(size_mb)
        self.rate_mbps = 0.0
        self.rate_cap_mbps = rate_cap_mbps
        self.label = label
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        #: Event triggered when the flow completes (value = the flow) or
        #: fails (TransferFailed).
        self.done = env.event()
        self.aborted = False

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def transferred_mb(self) -> float:
        return self.size_mb - self.remaining_mb

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def mean_rate_mbps(self) -> Optional[float]:
        """Average goodput over the flow's lifetime (MB/s)."""
        dur = self.duration
        if dur is None or dur <= 0:
            return None
        return self.transferred_mb / dur

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flow(#{self.fid} {self.src.name}->{self.dst.name} "
            f"{self.remaining_mb:.2f}/{self.size_mb:.2f}MB @ {self.rate_mbps:.2f}MB/s)"
        )


class Network:
    """The flow network: registers hosts, runs transfers, shares bandwidth."""

    def __init__(self, env: Environment, default_latency_s: float = 0.001,
                 wan_latency_s: float = 0.01,
                 allocator: str = "incremental",
                 coalesce: bool = True):
        self.env = env
        self.default_latency_s = float(default_latency_s)
        self.wan_latency_s = float(wan_latency_s)
        self.hosts: Dict[str, Host] = {}
        self._active: List[Flow] = []
        self._pending_latency: Dict[int, Flow] = {}
        #: cluster name -> (egress MB/s, ingress MB/s); None means unlimited.
        self._cluster_gateways: Dict[str, Tuple[float, float]] = {}
        #: background (reserved) rates per constraint key.
        self._background: Dict[Tuple, float] = {}
        self._last_update = env.now
        self._allocator = make_allocator(allocator)
        self._allocator.gateways = self._cluster_gateways
        self._coalesce = bool(coalesce)
        self._settle_pending = False
        self._completion_timer: Optional[Timer] = None
        #: statistics
        self.completed_flows = 0
        self.failed_flows = 0
        self.total_mb_delivered = 0.0
        #: number of full allocation passes actually run (benchmark metric)
        self.allocation_passes = 0
        #: number of events that requested a re-allocation
        self.recompute_requests = 0

    @property
    def allocator_name(self) -> str:
        return self._allocator.name

    # -- topology ------------------------------------------------------------
    def add_host(self, host: Host) -> Host:
        if host.name in self.hosts:
            raise ValueError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host
        host.on_failure(self._on_host_failure)
        return host

    def set_cluster_gateway(self, cluster: str, egress_mbps: float,
                            ingress_mbps: Optional[float] = None) -> None:
        """Cap the aggregate rate of flows leaving/entering a cluster."""
        if egress_mbps <= 0:
            raise ValueError("egress capacity must be positive")
        ingress = egress_mbps if ingress_mbps is None else ingress_mbps
        if ingress <= 0:
            raise ValueError("ingress capacity must be positive")
        self._cluster_gateways[cluster] = (float(egress_mbps), float(ingress))
        # Gateway changes can alter which constraints existing flows cross.
        self._allocator.rebuild(self._active)
        self._recompute()

    # -- background load -----------------------------------------------------
    def add_background_load(self, host: Host, direction: str, rate_mbps: float) -> None:
        """Reserve ``rate_mbps`` of a host's uplink/downlink for control traffic."""
        if direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")
        key = ("host-up", host.uid) if direction == "up" else ("host-down", host.uid)
        self._background[key] = self._background.get(key, 0.0) + float(rate_mbps)
        self._recompute()

    def remove_background_load(self, host: Host, direction: str, rate_mbps: float) -> None:
        """Release previously reserved control-traffic bandwidth."""
        if direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")
        key = ("host-up", host.uid) if direction == "up" else ("host-down", host.uid)
        current = self._background.get(key, 0.0) - float(rate_mbps)
        if current <= _EPSILON:
            self._background.pop(key, None)
        else:
            self._background[key] = current
        self._recompute()

    # -- transfers -------------------------------------------------------------
    def latency_between(self, src: Host, dst: Host) -> float:
        if src is dst:
            return 0.0
        if src.cluster == dst.cluster:
            return self.default_latency_s
        return self.wan_latency_s

    def transfer(self, src: Host, dst: Host, size_mb: float,
                 label: Optional[str] = None,
                 rate_cap_mbps: Optional[float] = None) -> Flow:
        """Start a transfer of ``size_mb`` MB from *src* to *dst*.

        Returns the :class:`Flow`; wait on ``flow.done`` for completion.  A
        transfer from a host to itself completes with no latency.
        ``rate_cap_mbps`` adds a per-flow application-level throughput cap
        (used to model protocol clients that cannot saturate a fast LAN link).
        """
        if src.name not in self.hosts or dst.name not in self.hosts:
            raise KeyError("both hosts must be registered with the network")
        flow = Flow(self.env, src, dst, size_mb, label=label,
                    rate_cap_mbps=rate_cap_mbps)
        if not src.online or not dst.online:
            flow.done.fail(TransferFailed(flow, "endpoint offline at start"))
            flow.done.defused = True
            self.failed_flows += 1
            return flow
        latency = self.latency_between(src, dst)
        flow.start_time = self.env.now

        if size_mb <= _EPSILON or src is dst:
            # Pure-latency transfer (control message or local copy).
            def _finish(_evt, flow=flow):
                if flow.aborted:
                    return
                flow.end_time = self.env.now
                self.completed_flows += 1
                self.total_mb_delivered += flow.size_mb
                flow.done.succeed(flow)

            self.env.timeout(latency).add_callback(_finish)
            return flow

        self._pending_latency[flow.fid] = flow

        def _activate(_evt, flow=flow):
            self._pending_latency.pop(flow.fid, None)
            if flow.aborted:
                return
            if not flow.src.online or not flow.dst.online:
                self._fail_flow(flow, "endpoint offline")
                return
            self._active.append(flow)
            self._allocator.flow_added(flow)
            self._recompute()

        self.env.timeout(latency).add_callback(_activate)
        return flow

    def abort(self, flow: Flow, reason: str = "aborted") -> None:
        """Abort an in-progress transfer (its ``done`` event fails)."""
        if flow.finished or flow.aborted:
            return
        self._advance()
        self._fail_flow(flow, reason)
        self._recompute()

    @property
    def active_flows(self) -> List[Flow]:
        return list(self._active)

    # -- failure handling -------------------------------------------------------
    def _on_host_failure(self, host: Host) -> None:
        self._advance()
        for flow in [f for f in self._active] + list(self._pending_latency.values()):  # detlint: ignore[DET004] — dict filled in flow-creation event order, which the kernel makes deterministic
            if flow.src is host or flow.dst is host:
                self._fail_flow(flow, f"host {host.name} failed")
        self._recompute()

    def _fail_flow(self, flow: Flow, reason: str) -> None:
        flow.aborted = True
        flow.end_time = self.env.now
        # A dead flow moves nothing.  Its last allocated rate is not a fact
        # of the run: it depends on whether the allocator ran a pass per
        # event (dense) or one per timestamp (coalesced) at this instant.
        flow.rate_mbps = 0.0
        if flow in self._active:
            self._active.remove(flow)
            self._allocator.flow_removed(flow)
        self._pending_latency.pop(flow.fid, None)
        self.failed_flows += 1
        if not flow.done.triggered:
            flow.done.fail(TransferFailed(flow, reason))
            # Abort is an expected outcome; don't crash the simulation if the
            # initiator stopped listening (e.g. it crashed too).
            flow.done.defused = True

    # -- bandwidth sharing -------------------------------------------------------
    def _advance(self) -> None:
        """Progress all active flows from the last update time to now."""
        now = self.env.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._active:
                flow.remaining_mb = max(0.0, flow.remaining_mb - flow.rate_mbps * dt)
        self._last_update = now

    def _recompute(self) -> None:
        """Request a re-allocation of rates.

        With coalescing (the default) the request marks the network dirty
        and the allocation settles once at the end of the current timestamp;
        without it, the pass runs immediately (the reference behaviour, one
        full recompute per flow event).
        """
        self.recompute_requests += 1
        if not self._coalesce:
            self._settle()
            return
        if self._settle_pending:
            return
        self._settle_pending = True
        self.env.settle(self._settle)

    def _settle(self, _evt: Optional[Event] = None) -> None:
        """One allocation pass: advance, complete, re-allocate, re-arm timer."""
        self._settle_pending = False
        # Bring every flow's remaining volume up to date before re-allocating
        # (idempotent: _advance() is a no-op when already at the current time).
        self._advance()
        # Complete flows that have (numerically) finished, in activation
        # order: that is the order their ``done`` events fire in.
        active = self._active
        finished = [f for f in active if f.remaining_mb <= 1e-9]
        if finished:
            self._active = active = [f for f in active
                                     if f.remaining_mb > 1e-9]
            now = self.env.now
            for flow in finished:
                self._allocator.flow_removed(flow)
                flow.remaining_mb = 0.0
                flow.end_time = now
                self.completed_flows += 1
                self.total_mb_delivered += flow.size_mb
                flow.done.succeed(flow)

        self.allocation_passes += 1
        rates = self._allocator.allocate(active, self._background)
        # Assign the rates and find the next completion in the same loop.
        horizon = math.inf
        for flow in active:
            rate = flow.rate_mbps = rates[flow.fid]
            if rate > _EPSILON:
                eta = flow.remaining_mb / rate
                if eta < horizon:
                    horizon = eta
        # Re-arm the single, cancellable wake-up timer.  If every active flow
        # is starved (zero capacity) nothing is scheduled: a topology or
        # background change will request a new pass.
        if self._completion_timer is not None:
            self._completion_timer.cancel()
        self._completion_timer = (
            self.env.call_later(horizon, self._on_completion_timer)
            if horizon < math.inf else None)

    def _on_completion_timer(self, _evt: Event) -> None:
        self._completion_timer = None
        self._recompute()
