"""Service routing: key → shard → live replica endpoint.

The paper presents BitDew as "a flexible distributed service architecture";
its prototype already distributes one service (the DHT-backed Distributed
Data Catalog, §4.2).  This module generalises that: a
:class:`ServiceRouter` decides, for every API-layer invocation, *which*
service instance serves it.

* :class:`StaticRouter` — the classic single-container deployment: every
  service has exactly one endpoint; ``invoke`` is a plain passthrough to
  :meth:`RpcChannel.invoke` (byte-identical to calling the endpoint
  directly, which keeps the default deployment's behaviour unchanged).
* :class:`FabricRouter` — the sharded deployment: the Data Catalog and the
  Data Scheduler are split into *S* shards by consistent hashing
  (:class:`ShardRing`, reusing the Chord ring math of
  :mod:`repro.dht.chord` for key → shard routing), each shard replicated on
  *k* service hosts.  Invocations resolve to the shard's first replica the
  fabric's heartbeat detector believes alive, and retry with the channel's
  failover policy — a service-host crash reroutes clients to a live replica
  within one heartbeat timeout instead of raising :class:`RpcError`
  forever.

Routing keys are extracted per (service, method): Data Catalog calls route
by data uid (or publish key), Data Scheduler calls by data uid — except
``synchronize``, which scatters the host's cache view over every scheduler
shard and gathers the per-shard :class:`SyncResult` into one, preserving
Algorithm 1's host-visible semantics.  Methods with no key (e.g.
``find_by_name``) scatter to all shards and merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Set, Tuple

from repro.dht.chord import ChordRing, chord_hash
from repro.net.rpc import RpcChannel, RpcEndpoint, RpcError
from repro.sim.kernel import Event
from repro.services.data_scheduler import SyncResult

__all__ = ["FabricRouter", "HandoffPlan", "KeyMove", "ServiceRouter",
           "ShardRing", "StaticRouter"]


@dataclass(frozen=True)
class KeyMove:
    """One key whose owning shard changes in a ring transition."""

    key: str
    src: int
    dst: int


@dataclass
class HandoffPlan:
    """The per-key migration plan for one ring transition.

    Produced by :meth:`ShardRing.plan_handoff`: the sorted list of keys
    whose owner differs between the old and the new ring, plus enough
    metadata to judge the plan against the theoretical minimum.  Because a
    split only *adds* vnodes (and a merge only removes the leaving shard's
    vnodes) while every surviving vnode keeps its ring position, the plan
    is minimal by construction: a key moves iff its successor vnode
    changed, which happens iff its new owner differs from its old one.
    """

    old_shards: int
    new_shards: int
    total_keys: int
    moves: List[KeyMove] = field(default_factory=list)

    @property
    def keys_moved(self) -> int:
        return len(self.moves)

    @property
    def theoretical_minimum(self) -> float:
        """Expected minimal moves for a balanced ring: K·|S'−S|/max(S,S').

        Growing S→S' shards, the new shards own (S'−S)/S' of a perfectly
        balanced keyspace, so that fraction of the K keys *must* move;
        shrinking, the leaving shards owned (S−S')/S of it.  Vnode
        placement is hash-random, so a real ring deviates from this by the
        arc-imbalance factor (shrinking with more vnodes) — the property
        suite pins the deviation, the bench reports the measured ratio.
        """
        larger = max(self.old_shards, self.new_shards)
        if larger == 0:
            return 0.0
        return (self.total_keys
                * abs(self.new_shards - self.old_shards) / larger)


class ShardRing:
    """Consistent key → shard-index hashing on a Chord ring.

    Each shard joins a :class:`~repro.dht.chord.ChordRing` as ``vnodes``
    virtual nodes; a key maps to the shard whose virtual node is the Chord
    successor of the key's identifier — the exact ring math the Distributed
    Data Catalog uses for key placement (§3.4.1), reused for service
    routing.  Multiple virtual nodes per shard smooth the arc imbalance a
    single hash point per shard would give.
    """

    def __init__(self, shards: int, label: str = "shard", bits: int = 32,
                 vnodes: int = 16, seed: int = 0):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.shards = shards
        self.label = label
        self.bits = bits
        self.vnodes = vnodes
        self.seed = int(seed)
        self._ring = ChordRing(bits=bits, replication=1)
        self._index: Dict[str, int] = {}
        for i in range(shards):
            for v in range(vnodes):
                node = self._ring.join(self._vnode_name(i, v))
                self._index[node.name] = i

    def _vnode_name(self, shard: int, vnode: int) -> str:
        # seed 0 keeps the pre-elastic vnode names (and hence ring
        # positions) byte-for-byte — the default deployment's key→shard map
        # is unchanged.  Non-zero seeds salt every vnode id, giving
        # property tests an independent ring family per seed.
        base = f"{self.label}-{shard}#{vnode}"
        return base if self.seed == 0 else f"{base}~{self.seed}"

    def shard_for(self, key: str) -> int:
        """The shard index responsible for *key*."""
        if self.shards == 1:
            return 0
        node = self._ring.successor_of(chord_hash(key, self._ring.bits))
        return self._index[node.name]

    def partition(self, keys) -> Dict[int, Set[str]]:
        """Group *keys* by responsible shard (only non-empty groups)."""
        parts: Dict[int, Set[str]] = {}
        for key in keys:
            parts.setdefault(self.shard_for(key), set()).add(key)
        return parts

    # -------------------------------------------------------------- elasticity
    def with_shards(self, shards: int) -> "ShardRing":
        """A new ring over *shards* shards, same label/bits/vnodes/seed.

        Because vnode names are a pure function of (label, seed, shard
        index, vnode index), the surviving shards' vnodes land on exactly
        the same ring positions: transitioning S→S±1 only inserts (or
        removes) the tail shard's vnode arcs.
        """
        return ShardRing(shards, label=self.label, bits=self.bits,
                         vnodes=self.vnodes, seed=self.seed)

    def plan_handoff(self, new_ring: "ShardRing",
                     keys: Iterable[str]) -> HandoffPlan:
        """The deterministic per-key migration plan from this ring to *new_ring*.

        Enumerates *keys* in sorted order and records every key whose
        owner differs between the rings.  Both rings must belong to the
        same family (label/bits/vnodes/seed) or the "only owner-changed
        keys move" guarantee does not hold.
        """
        if (new_ring.label, new_ring.bits, new_ring.vnodes, new_ring.seed) \
                != (self.label, self.bits, self.vnodes, self.seed):
            raise ValueError(
                "handoff requires rings of the same family "
                f"(label/bits/vnodes/seed): {self.label!r} vs {new_ring.label!r}")
        moves: List[KeyMove] = []
        total = 0
        for key in sorted(set(keys)):
            total += 1
            src = self.shard_for(key)
            dst = new_ring.shard_for(key)
            if src != dst:
                moves.append(KeyMove(key, src, dst))
        return HandoffPlan(old_shards=self.shards, new_shards=new_ring.shards,
                           total_keys=total, moves=moves)


class ServiceRouter:
    """Interface: resolve and invoke D* service calls for a host agent."""

    def invoke(self, channel: RpcChannel, service: str, method: str,
               *args: Any, **kwargs: Any) -> Generator[Event, Any, Any]:
        raise NotImplementedError


class StaticRouter(ServiceRouter):
    """Single-container routing: one endpoint per service, no failover."""

    def __init__(self, endpoints: Dict[str, RpcEndpoint]) -> None:
        self.endpoints = dict(endpoints)

    def invoke(self, channel: RpcChannel, service: str, method: str,
               *args: Any, **kwargs: Any) -> Generator[Event, Any, Any]:
        # Returns the channel's invocation generator directly — the call is
        # indistinguishable from pre-fabric code invoking the endpoint.
        return channel.invoke(self.endpoints[service], method, *args, **kwargs)


#: Routing-key extractors per (service, method).  ``None`` marks a
#: scatter-to-all-shards method; missing services route to their single
#: (unsharded) endpoint.
_ROUTING_KEYS: Dict[str, Dict[str, Optional[Callable[..., str]]]] = {
    "dc": {
        "register_data": lambda data, *a: data.uid,
        "get_data": lambda uid, *a: uid,
        "update_status": lambda uid, *a: uid,
        "delete_data": lambda uid, *a: uid,
        "find_by_name": None,
        "add_locator": lambda locator, *a: locator.data_uid,
        "locators_for": lambda data_uid, *a: data_uid,
        "publish_pair": lambda key, *a: key,
        "lookup_pair": lambda key, *a: key,
    },
    "ds": {
        "heartbeat": lambda host_name, *a: host_name,
        "confirm_ownership": lambda host_name, data_uid, *a: data_uid,
        # The ActiveData API surface: Θ mutations route by data uid.
        "schedule": lambda data, *a: data.uid,
        "pin": lambda data, *a: data.uid,
        "unschedule": lambda data_uid, *a: data_uid,
        "owners_of": lambda data_uid, *a: data_uid,
    },
}

def _dedup_by_uid(rows):
    """Stable de-duplication by ``uid`` — the migration dual-read guard.

    While a shard migration is copying, a datum legitimately exists on both
    its old and its new shard; a scatter that reads both must report it
    once.  Without a migration no two shards hold the same uid, so this is
    the identity on the default path.
    """
    seen: Set[str] = set()
    out = []
    for row in rows:
        if row.uid in seen:
            continue
        seen.add(row.uid)
        out.append(row)
    return out


#: How a scatter merges per-shard returns, per (service, method).
_SCATTER_MERGE = {
    ("dc", "find_by_name"): lambda results: _dedup_by_uid(
        row for rows in results for row in rows),
}

#: Sentinel distinguishing "no extractor registered" from "scatter" (None).
_MISSING = object()


class FabricRouter(ServiceRouter):
    """Sharded + replicated routing with heartbeat-driven failover."""

    def __init__(self, fabric):
        self.fabric = fabric
        #: resolutions served by a non-primary replica — one count per
        #: resolve attempt (so blocked retries against an undetected crash
        #: count each attempt), a traffic measure rather than a count of
        #: distinct failover transitions.
        self.reroutes = 0
        self.reroutes_by_shard: Dict[str, int] = {}
        #: synchronisations routed so far; rotates the batch-limit remainder
        self._sync_rounds = 0
        #: in-flight invocations per (service, shard); the rebalance
        #: coordinator waits for a leaving shard's count to reach zero
        #: before retiring its endpoints.
        self.outstanding: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------ resolution
    def _live_endpoint(self, service: str, shard: int) -> RpcEndpoint:
        """The target shard's first replica believed alive.

        Liveness is heartbeat-driven: the fabric's service-host detector —
        not the host's actual ``online`` flag — decides, so a fresh crash
        keeps routing to the dead primary until the detector's timeout
        declares it (the failover policy's retries bridge that window).
        """
        endpoints = self.fabric.shard_endpoints(service, shard)
        for position, endpoint in enumerate(endpoints):
            if self.fabric.host_believed_alive(endpoint.host):
                if position > 0:
                    self.reroutes += 1
                    label = endpoint.shard or service
                    self.reroutes_by_shard[label] = (
                        self.reroutes_by_shard.get(label, 0) + 1)
                return endpoint
        raise RpcError(
            f"no live replica for service {service!r} shard "
            f"{endpoints[0].shard if endpoints else shard} "
            f"({len(endpoints)} replicas, all presumed dead)")

    def _resolver(self, service: str, shard: int):
        return lambda: self._live_endpoint(service, shard)

    # ------------------------------------------------------------------ invocation
    def _call(self, channel: RpcChannel, service: str, shard: int, method: str,
              args, kwargs):
        """Generator: one failover invocation, tracked per (service, shard)."""
        slot = (service, shard)
        self.outstanding[slot] = self.outstanding.get(slot, 0) + 1
        try:
            result = yield from channel.invoke_failover(
                self._resolver(service, shard), method, *args,
                policy=self.fabric.failover_policy, **kwargs)
        finally:
            self.outstanding[slot] -= 1
        return result

    def invoke(self, channel: RpcChannel, service: str, method: str,
               *args: Any, **kwargs: Any) -> Generator[Event, Any, Any]:
        if service == "ds" and method == "synchronize":
            return self._invoke_synchronize(channel, *args, **kwargs)
        shards = self.fabric.shard_count(service)
        if shards <= 0:
            # Unsharded service (DR/DT): single replica group, shard 0.
            return self._call(channel, service, 0, method, args, kwargs)
        extractor = _ROUTING_KEYS.get(service, {}).get(method, _MISSING)
        if extractor is _MISSING:
            raise RpcError(
                f"no routing rule for {service}.{method} "
                f"(sharded service calls need a key extractor)")
        if extractor is None:
            return self._invoke_scatter(channel, service, method,
                                        *args, **kwargs)
        key = extractor(*args)
        if self.fabric.migration is not None:
            return self._invoke_migrating(channel, service, method, key,
                                          args, kwargs)
        return self._call(channel, service,
                          self.fabric.effective_shard(service, key),
                          method, args, kwargs)

    def _invoke_migrating(self, channel: RpcChannel, service: str, method: str,
                          key: str, args, kwargs):
        """Generator: one keyed invocation while a migration overlay is up.

        Planned keys route to their source shard until flipped, then to
        their destination — except over the sealed cutover window, where
        the call *blocks* and resumes against the new owner (the
        "forwarding" that makes the cutover lossless).  The overlay tracks
        the call so the coordinator can drain in-flight work, and marks the
        key dirty on completion so post-copy mutations are re-copied.
        """
        yield from self.fabric.migration.wait_key(service, key)
        migration = self.fabric.migration    # may have ended meanwhile
        shard = self.fabric.effective_shard(service, key)
        if migration is None:
            result = yield from self._call(channel, service, shard, method,
                                           args, kwargs)
            return result
        token = migration.note_enter(service, (key,))
        try:
            result = yield from self._call(channel, service, shard, method,
                                           args, kwargs)
        finally:
            migration.note_exit(token)
        return result

    def wait_shard_idle(self, shard: int):
        """Generator: wait until no invocation targets *shard* any more."""
        env = self.fabric.env
        while (self.outstanding.get(("dc", shard), 0)
               + self.outstanding.get(("ds", shard), 0)) > 0:
            yield env.timeout(0.01)

    def _fan_out(self, channel: RpcChannel, calls):
        """Generator: run per-shard invocations *concurrently* and gather.

        ``calls`` is a list of (service, shard, method, args, kwargs).
        Each call runs as its own simulation process, so a scatter pays
        the slowest shard's latency, not the sum.  Outcomes are collected
        explicitly (never fail-fast): a failing shard must not leave
        sibling processes' failures undelivered, and the first error — in
        shard order, deterministically — is re-raised only after every
        shard settled.  Returns the per-shard results in shard order.
        """
        env = channel.env

        def one(service, shard, method, args, kwargs):
            try:
                result = yield from self._call(channel, service, shard,
                                               method, args, kwargs)
            except RpcError as exc:
                return (False, exc)
            return (True, result)

        processes = [env.process(one(*call)) for call in calls]
        yield env.all_of(processes)
        outcomes = [process.value for process in processes]
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _ok, value in outcomes]

    def _invoke_scatter(self, channel: RpcChannel, service: str, method: str,
                        *args, **kwargs):
        """Generator: fan a keyless call out to every shard and merge."""
        merge = _SCATTER_MERGE[(service, method)]
        count = self.fabric.shard_count(service)
        if self.fabric.migration is not None:
            # During a migration the scatter must reach every endpoint
            # group that may still hold state (the joining shard during a
            # split, the leaving shard until its drain completes); the
            # merge de-duplicates the dual reads.
            count = self.fabric.endpoint_group_count(service)
        results = yield from self._fan_out(channel, [
            (service, shard, method, args, kwargs)
            for shard in range(count)])
        return merge(results)

    def _invoke_synchronize(self, channel: RpcChannel, host_name: str,
                            cached_uids, reservoir: bool = True,
                            max_new: Optional[int] = None,
                            payload_kb: float = 1.0):
        """Generator: scatter one synchronisation over the scheduler shards.

        The host's cache view Δk is partitioned by the scheduler ring; each
        shard runs Algorithm 1 on its slice *concurrently* (the gather
        waits for every shard, then merges into one :class:`SyncResult`).
        """
        cached = set(cached_uids)
        if self.fabric.migration is not None:
            result = yield from self._sync_migrating(
                channel, host_name, cached, reservoir, max_new, payload_kb)
            return result
        result = yield from self._scatter_sync(
            channel, host_name, self.fabric.ring_for("ds").partition(cached),
            self.fabric.shard_count("ds"), reservoir, max_new, payload_kb)
        return result

    def _scatter_sync(self, channel: RpcChannel, host_name: str,
                      parts: Dict[int, Set[str]], groups: int,
                      reservoir: bool, max_new: Optional[int],
                      payload_kb: float):
        """Generator: one ``synchronize`` per shard group, merged.

        ``max_new`` (or the fabric's MaxDataSchedule default) is divided
        exactly across the *groups* — floor(limit/S) each plus one extra on
        (limit mod S) of them — so a sharded synchronisation assigns at
        most the same batch size as the centralized scheduler.  The
        remainder shards *rotate* with every synchronisation: with more
        shards than budget, every shard still gets its turn instead of a
        fixed prefix starving the rest forever.
        """
        limit = int(max_new if max_new is not None
                    else self.fabric.max_data_schedule)
        base, extra = divmod(limit, groups)
        offset = self._sync_rounds % groups
        self._sync_rounds += 1
        calls = []
        for shard in range(groups):
            per_shard = base + (1 if (shard - offset) % groups < extra else 0)
            calls.append(("ds", shard, "synchronize",
                          (host_name, parts.get(shard, set())),
                          {"reservoir": reservoir, "max_new": per_shard,
                           "payload_kb": payload_kb}))
        results = yield from self._fan_out(channel, calls)
        assigned: List = []
        to_delete: List[str] = []
        to_download: List[str] = []
        for result in results:
            assigned.extend(result.assigned)
            to_delete.extend(result.to_delete)
            to_download.extend(result.to_download)
        return SyncResult(host_name=host_name, assigned=assigned,
                          to_delete=sorted(to_delete),
                          to_download=sorted(to_download),
                          time=channel.env.now)

    def _sync_migrating(self, channel: RpcChannel, host_name: str,
                        cached_uids: Set[str], reservoir: bool,
                        max_new: Optional[int], payload_kb: float):
        """Generator: one synchronisation while a migration overlay is up.

        The cache view is partitioned by *effective* owner (planned uids
        follow the migration state machine, new uids the new ring) over
        every endpoint group, the whole synchronisation blocks while any
        of its uids sits in the sealed cutover window, and the planned
        uids it carries are tracked/dirty-marked like keyed invocations —
        a sync's step-1 owner registration mutates scheduler state.
        """
        yield from self.fabric.migration.wait_keys("ds", cached_uids)
        migration = self.fabric.migration
        if migration is None:
            # The migration ended while this sync was parked at the seal;
            # run it as a plain post-migration synchronisation.
            result = yield from self._invoke_synchronize(
                channel, host_name, cached_uids, reservoir=reservoir,
                max_new=max_new, payload_kb=payload_kb)
            return result
        parts: Dict[int, Set[str]] = {}
        # Sorted so the per-shard partition (a dict keyed by shard) is
        # built in a reproducible order regardless of set hash order.
        for uid in sorted(cached_uids):
            parts.setdefault(migration.effective_shard("ds", uid),
                             set()).add(uid)
        groups = self.fabric.endpoint_group_count("ds")
        token = migration.note_enter("ds", cached_uids)
        try:
            result = yield from self._scatter_sync(
                channel, host_name, parts, groups, reservoir, max_new,
                payload_kb)
        finally:
            migration.note_exit(token)
        return result
