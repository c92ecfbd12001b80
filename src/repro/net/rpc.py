"""RPC layer standing in for Java RMI.

The BitDew prototype uses Java RMI between the API layer and the D*
services.  Table 2 of the paper distinguishes three call paths:

* ``local`` — a direct function call (client and service in one JVM, no RMI),
* ``RMI local`` — an RMI call over the loopback interface,
* ``RMI remote`` — an RMI call between two machines on the LAN.

:class:`RpcChannel` reproduces these as latency profiles; the round-trip
costs are calibrated so that the data-slot-creation micro-benchmark
(Table 2) lands in the paper's bands (see ``benchmarks/``).  A channel can
also charge a per-kilobyte marshalling cost for larger payloads.

A :class:`RpcEndpoint` wraps a service object; ``channel.invoke(endpoint,
"method", ...)`` is a generator meant to be yielded from inside a simulation
process.  If the target method itself returns a generator it is run as a
sub-process (so services can perform their own simulated waits, e.g.
database accesses).
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.sim.kernel import Environment

__all__ = [
    "ChannelKind",
    "FailoverPolicy",
    "RpcChannel",
    "RpcEndpoint",
    "RpcError",
    "RpcResponseLostError",
]


class RpcError(RuntimeError):
    """Raised when an RPC cannot be completed (e.g. the service host is down)."""


class RpcResponseLostError(RpcError):
    """The service host failed *after* executing the call: the method ran but
    its response never reached the client.  Failover must not blindly retry
    these — re-executing a non-idempotent method (a synchronisation, an
    ownership change) on a live replica would duplicate its effects.  The
    caller decides (BitDew's pull model simply re-synchronises later)."""


class ChannelKind(enum.Enum):
    """The three call paths measured by Table 2."""

    LOCAL = "local"
    RMI_LOCAL = "rmi local"
    RMI_REMOTE = "rmi remote"


#: Calibrated round-trip latencies (seconds).  "local" is a plain call.
_DEFAULT_RTT = {
    ChannelKind.LOCAL: 0.0,
    ChannelKind.RMI_LOCAL: 130e-6,
    ChannelKind.RMI_REMOTE: 245e-6,
}

#: Marshalling cost per KB of payload (seconds/KB); RMI serialisation is slow.
_DEFAULT_PER_KB = {
    ChannelKind.LOCAL: 0.0,
    ChannelKind.RMI_LOCAL: 2e-6,
    ChannelKind.RMI_REMOTE: 4e-6,
}


@dataclass
class RpcEndpoint:
    """A service object reachable through a channel.

    ``host`` is optional; when given, calls fail with :class:`RpcError` while
    the host is offline (this is how the transient-fault model for service
    nodes manifests to clients).

    ``shard`` names the fabric shard this endpoint belongs to (e.g.
    ``"ds-2"``); it is included in :meth:`label` so a multi-shard
    :class:`RpcError` identifies which shard of which service failed.

    ``domain`` names the administrative domain (federation) the endpoint
    serves.  Shard names and host ids are only unique *within* one domain —
    two federated domains both have a ``dc-0`` — so the domain qualifies
    the label; otherwise a :class:`~repro.services.autoscaler.HotspotMonitor`
    spanning channels from several domains would alias their per-label
    deltas onto one counter.  ``domain=None`` (every single-domain
    deployment) keeps the historical labels byte-identical.
    """

    service: Any
    host: Any = None
    name: Optional[str] = None
    shard: Optional[str] = None
    domain: Optional[str] = None

    def label(self) -> str:
        # Memoized: endpoints are long-lived and their fields never change
        # after construction, and invoke() reads the label on every call.
        cached = self.__dict__.get("_label")
        if cached is None:
            base = self.name if self.name else type(self.service).__name__
            if self.domain is not None:
                qualifier = (f"{self.domain}/{self.shard}"
                             if self.shard is not None else self.domain)
                cached = f"{base}[{qualifier}]"
            elif self.shard is not None:
                cached = f"{base}[{self.shard}]"
            else:
                cached = base
            self.__dict__["_label"] = cached
        return cached


@dataclass(frozen=True)
class FailoverPolicy:
    """Retry-on-:class:`RpcError` policy for fabric-routed invocations.

    Each failed attempt waits ``backoff_s`` before the endpoint is resolved
    again — by then the fabric's heartbeat detector may have declared the
    dead service host and rerouted the shard to a live replica.  After
    ``max_attempts`` total attempts the request is *lost* (counted on the
    channel) and the last :class:`RpcError` propagates to the caller.
    """

    max_attempts: int = 16
    backoff_s: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")


class RpcChannel:
    """A latency-modelled request/response channel."""

    def __init__(
        self,
        env: Environment,
        kind: ChannelKind = ChannelKind.RMI_REMOTE,
        round_trip_s: Optional[float] = None,
        per_kb_s: Optional[float] = None,
    ):
        self.env = env
        self.kind = kind
        self.round_trip_s = (
            _DEFAULT_RTT[kind] if round_trip_s is None else float(round_trip_s)
        )
        self.per_kb_s = (
            _DEFAULT_PER_KB[kind] if per_kb_s is None else float(per_kb_s)
        )
        #: Payload KB pushed through the channel (marshalling accounting).
        self.marshalled_kb = 0.0
        #: Per-endpoint-label accounting (fabric shards show up individually,
        #: e.g. ``"DataScheduler[ds-2]"`` — the per-shard latency breakdown);
        #: the channel totals below are sums over it.
        self.calls_by_label: Dict[str, int] = {}
        self.latency_by_label: Dict[str, float] = {}
        #: Failover accounting: attempts that failed and were retried, and
        #: requests lost after exhausting a policy's attempts.
        self.failover_attempts = 0
        self.lost_requests = 0

    # Counters useful for protocol-overhead accounting (Figure 3b/3c).
    @property
    def calls(self) -> int:
        return sum(self.calls_by_label.values())

    @property
    def total_latency_s(self) -> float:
        return sum(self.latency_by_label.values())

    @property
    def marshalling_latency_s(self) -> float:
        """The per-KB serialisation share of :attr:`total_latency_s`."""
        return self.per_kb_s * self.marshalled_kb

    def call_cost(self, payload_kb: float = 1.0) -> float:
        """Latency charged for one round trip carrying ``payload_kb`` KB."""
        return self.round_trip_s + self.per_kb_s * max(0.0, payload_kb)

    def invoke(self, endpoint: RpcEndpoint, method: str, *args,
               payload_kb: float = 1.0, **kwargs):
        """Generator performing one remote invocation.

        Yields the request latency, runs the target method (as a sub-process
        when it is a generator), then yields the response latency, and
        finally returns the method's result.
        """
        if endpoint.host is not None and not endpoint.host.online:
            raise RpcError(
                f"service host {endpoint.host.name} is offline "
                f"(calling {endpoint.label()}.{method})"
            )
        target = getattr(endpoint.service, method)
        cost = self.call_cost(payload_kb)
        label = endpoint.label()
        self.marshalled_kb += max(0.0, payload_kb)
        self.calls_by_label[label] = self.calls_by_label.get(label, 0) + 1
        self.latency_by_label[label] = (
            self.latency_by_label.get(label, 0.0) + cost)
        if cost > 0:
            yield self.env.timeout(cost / 2.0)
        if endpoint.host is not None and not endpoint.host.online:
            # The host died while the request was marshalled/in transit:
            # the method never ran, so this is a plain retryable RpcError —
            # not a lost response, which at-most-once must never retry.
            raise RpcError(
                f"service host {endpoint.host.name} went offline before "
                f"dispatch (calling {endpoint.label()}.{method})"
            )
        result = target(*args, **kwargs)
        if inspect.isgenerator(result):
            result = yield self.env.process(result)
        if cost > 0:
            yield self.env.timeout(cost / 2.0)
        if endpoint.host is not None and not endpoint.host.online:
            raise RpcResponseLostError(
                f"service host {endpoint.host.name} failed during the call "
                f"to {endpoint.label()}.{method}"
            )
        return result

    def invoke_failover(self, resolve: Callable[[], RpcEndpoint], method: str,
                        *args, policy: Optional[FailoverPolicy] = None,
                        payload_kb: float = 1.0, **kwargs):
        """Generator: invoke with retry-on-:class:`RpcError` failover.

        ``resolve`` is called before *every* attempt and returns the endpoint
        to try (the fabric router resolves the currently-live replica of the
        target shard; it raises :class:`RpcError` itself when no replica is
        believed alive).  A failed attempt waits ``policy.backoff_s`` and
        re-resolves, so a crashed service host is retried until the
        heartbeat detector reroutes the shard — or the attempt budget runs
        out, which counts the request as lost and re-raises.

        At-most-once execution: a :class:`RpcResponseLostError` — the host
        died *after* the method ran, only the response was lost — is never
        retried (re-executing a non-idempotent call on a replica would
        duplicate its effects); it counts as a lost request and propagates
        for the caller's own recovery (the pull model's next sync).
        """
        if policy is None:
            policy = FailoverPolicy()
        attempt = 0
        while True:
            attempt += 1
            try:
                endpoint = resolve()
                result = yield from self.invoke(
                    endpoint, method, *args, payload_kb=payload_kb, **kwargs)
                return result
            except RpcResponseLostError:
                self.lost_requests += 1
                raise
            except RpcError:
                if attempt >= policy.max_attempts:
                    self.lost_requests += 1
                    raise
                self.failover_attempts += 1
            if policy.backoff_s > 0:
                yield self.env.timeout(policy.backoff_s)
