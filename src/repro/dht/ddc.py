"""Distributed Data Catalog (DDC) over the DHT (paper §3.4.1).

Replica locations held by volatile reservoir nodes are not centrally managed
by the Data Catalog; instead, every data creation or transfer completion on a
volatile node inserts a ``(data identifier, host identifier)`` pair into the
DHT.  The DDC also exposes the generic key/value publish interface the paper
mentions ("the API also gives the programmer the possibility to publish any
key/value pairs").

Cost model (what Table 3 measures): one publish is an iterative DHT lookup
(per-hop network latency plus per-node service time, the node's request
queue being served one request at a time) followed by an atomic registration
performed in ``registration_rounds`` message rounds on the responsible
replica set — DKS uses an atomic commit for its local operations, which is
why publishing to the DDC is roughly an order of magnitude slower than a
single call to the centralized catalog.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Set

from repro.sim.kernel import Environment, Event
from repro.sim.resources import Resource
from repro.dht.chord import ChordNode, ChordRing, LookupResult, chord_hash

__all__ = ["DistributedDataCatalog"]


class DistributedDataCatalog:
    """Publish/search of replica locations through a DHT ring.

    The measured subject of Table 3 (§4.2): publish rate through the DHT
    versus the centralized Data Catalog — the DDC trades per-operation
    latency (multi-hop routing + atomic registration rounds) for keeping
    volatile-replica indexing load off the stable services (§3.4.1).
    """

    def __init__(
        self,
        env: Environment,
        ring: Optional[ChordRing] = None,
        per_hop_latency_s: float = 0.002,
        node_service_s: float = 0.010,
        registration_rounds: int = 2,
    ) -> None:
        self.env = env
        self.ring = ring if ring is not None else ChordRing()
        self.per_hop_latency_s = float(per_hop_latency_s)
        self.node_service_s = float(node_service_s)
        self.registration_rounds = int(registration_rounds)
        #: one service queue per DHT node: requests are served one at a time
        self._queues: Dict[str, Resource] = {}
        #: statistics
        self.publish_count = 0
        self.search_count = 0
        self.total_hops = 0

    # -- membership -------------------------------------------------------------
    def join(self, host_name: str) -> ChordNode:
        """Attach a host to the DDC (it becomes a DHT node)."""
        node = self.ring.join(host_name)
        self._queues[host_name] = Resource(self.env, capacity=1)
        return node

    def leave(self, host_name: str) -> None:
        self.ring.leave(host_name)
        self._queues.pop(host_name, None)

    def fail(self, host_name: str) -> None:
        self.ring.fail(host_name)
        self._queues.pop(host_name, None)

    def node_of(self, host_name: str) -> ChordNode:
        return self.ring.get_node(host_name)

    # -- cost helpers ---------------------------------------------------------------
    def _visit(self, node: ChordNode) -> Generator[Event, Any, None]:
        """Generator: one request served by *node* (queueing + service time)."""
        queue = self._queues.get(node.name)
        if queue is None:
            queue = Resource(self.env, capacity=1)
            self._queues[node.name] = queue
        with queue.request() as req:
            yield req
            yield self.env.timeout(self.node_service_s)

    def _route(self, result: LookupResult) -> Generator[Event, Any, None]:
        """Generator: charge the latency and service time of a lookup route."""
        for hop in result.hops:
            yield self.env.timeout(self.per_hop_latency_s)
            yield from self._visit(hop)
        self.total_hops += result.hop_count

    # -- the DDC operations ------------------------------------------------------------
    def publish(self, data_id: str, host_id: str,
                origin: Optional[str] = None
                ) -> Generator[Event, Any, LookupResult]:
        """Generator: insert the (data_id, host_id) pair into the DHT."""
        return self.publish_pair(f"data:{data_id}", host_id, origin=origin)

    def publish_pair(self, key: str, value: Any, origin: Optional[str] = None
                     ) -> Generator[Event, Any, LookupResult]:
        """Generator: generic key/value publish (paper §3.3, last paragraph)."""
        start = self._start_node(origin)
        result = self.ring.lookup(key, start)
        yield from self._route(result)
        # Atomic registration on the replica set (DKS-style commit rounds).
        replicas = self.ring.replicas_for(result.key_id)
        for _round in range(self.registration_rounds):
            for replica in replicas:
                yield self.env.timeout(self.per_hop_latency_s)
                yield from self._visit(replica)
        for replica in replicas:
            replica.store(key, value)
        self.publish_count += 1
        return result

    def search(self, data_id: str, origin: Optional[str] = None
               ) -> Generator[Event, Any, Set[Any]]:
        """Generator: return the set of host identifiers owning *data_id*."""
        values = yield from self.search_pair(f"data:{data_id}", origin=origin)
        return values

    def search_pair(self, key: str, origin: Optional[str] = None
                    ) -> Generator[Event, Any, Set[Any]]:
        """Generator: generic key/value search."""
        start = self._start_node(origin)
        values, result = self.ring.get(key, start)
        yield from self._route(result)
        yield from self._visit(result.node)
        self.search_count += 1
        return values

    def unpublish(self, data_id: str, host_id: str,
                  origin: Optional[str] = None
                  ) -> Generator[Event, Any, LookupResult]:
        """Generator: remove a replica location (host left or data deleted)."""
        key = f"data:{data_id}"
        result = self.ring.lookup(key, self._start_node(origin))
        yield from self._route(result)
        # Delete on the route just charged; ring.delete would route again and
        # count every hop a second time.
        for replica in self.ring.replicas_for(result.key_id):
            replica.remove(key, host_id)
        return result

    # -- synchronous views (no simulated cost; used by tests and reports) -----------------
    def owners(self, data_id: str) -> Set[str]:
        """Who holds *data_id*, read off the replica set; serves no request."""
        key = f"data:{data_id}"
        for replica in self.ring.replicas_for(chord_hash(key, self.ring.bits)):
            values = replica.retrieve(key)
            if values:
                return values
        return set()

    def _start_node(self, origin: Optional[str]) -> Optional[ChordNode]:
        if origin is None:
            return None
        try:
            return self.ring.get_node(origin)
        except KeyError:
            return None

    @property
    def size(self) -> int:
        return len(self.ring)
