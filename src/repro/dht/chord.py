"""Chord-style distributed hash table (the paper's DKS substrate, §3.4.1).

The paper's prototype builds its Distributed Data Catalog on the DKS DHT
("DKS provides us an efficient and reliable implementation of a DHT");
Table 3 (§4.2) measures publishing through it against the centralized
catalog.  DKS itself is unavailable, so per ``DESIGN.md`` this module
substitutes a Chord ring with the observable properties the paper relies
on: ``O(log n)`` multi-hop key routing (each hop chargeable with network
latency and per-node service time), per-node key storage, replication over
successors, and survival of node departure and failure.

A faithful, simulation-friendly Chord implementation:

* node identifiers are SHA-1 hashes truncated to ``m`` bits, arranged on a
  ring;
* every node keeps a finger table (``m`` entries) and a successor list
  (for replication and failure resilience);
* lookups route greedily through the closest preceding finger, exactly as in
  the Chord paper, and report the hop path so the simulation can charge
  per-hop latency and per-node service time;
* keys are stored as ``key -> set(values)`` on the responsible node and
  replicated to ``replication`` successors;
* nodes can join, leave gracefully (handing keys to their successor) or fail
  (keys survive on replicas).

The ring keeps one index of its membership — the alive nodes sorted by
identifier, plus the parallel identifier list — updated by a ``bisect``
insert or delete on ``join`` / ``leave`` / ``fail``; every membership read
(``nodes``, ``successor_of``, ``replicas_for``, each lookup hop) is a bisect
into it.  Routing state is exact rather than converged by the periodic
stabilisation protocol (the paper's experiments exercise lookup/publish
performance, not churn convergence), but it is per node and on demand: a
membership change only bumps the ring's version, and a node's
``predecessor`` / ``successors`` / ``fingers`` are recomputed from the index
the first time they are read after a change.  A ring that never routes
(the fabric's ``ShardRing``) never builds a finger.

Contract: ``ChordNode.alive`` is written only by the ring (``join`` creates
the node alive, ``leave`` / ``fail`` clear it as they drop the node from the
index), so the index holds exactly the alive nodes; a departed node's
routing state stays frozen at its last read.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["ChordNode", "ChordRing", "LookupResult"]


def chord_hash(value: str, bits: int = 32) -> int:
    """SHA-1 based identifier on the ``2**bits`` ring."""
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


def _in_interval(x: int, a: int, b: int, inclusive_right: bool = False) -> bool:
    """True when x lies in the ring interval (a, b) (or (a, b]).

    All three are identifiers already reduced onto the ring.
    """
    if a == b:
        # The interval covers the whole ring (single-node case).
        return inclusive_right or x != a
    if a < b:
        return a < x <= b if inclusive_right else a < x < b
    return (x > a or x <= b) if inclusive_right else (x > a or x < b)


@dataclass
class LookupResult:
    """Outcome of a key lookup: the responsible node and the route taken.

    The hop path is what the Table 3 cost model charges: the DDC bills one
    network latency plus one node service time per hop (§4.2 explains the
    DHT's publish cost by exactly this multi-hop routing).
    """

    key_id: int
    node: "ChordNode"
    hops: List["ChordNode"] = field(default_factory=list)

    @property
    def hop_count(self) -> int:
        return len(self.hops)


class ChordNode:
    """One DHT participant."""

    def __init__(self, name: str, bits: int = 32) -> None:
        self.name = name
        self.bits = bits
        self.node_id = chord_hash(name, bits)
        self.storage: Dict[str, Set[Any]] = {}
        self.alive = True
        #: number of requests this node has served (lookup hops + stores)
        self.requests_served = 0
        # Routing state: owned by the ring this node joined, recomputed on
        # the first read after the ring's membership version moved.
        self._ring: Optional["ChordRing"] = None
        self._version = -1
        self._fingers: List["ChordNode"] = []
        self._successors: List["ChordNode"] = []
        self._predecessor: Optional["ChordNode"] = None

    def _sync(self) -> None:
        ring = self._ring
        if ring is not None and self._version != ring._version:
            ring._refresh(self)

    @property
    def fingers(self) -> List["ChordNode"]:
        self._sync()
        return self._fingers

    @property
    def successors(self) -> List["ChordNode"]:
        self._sync()
        return self._successors

    @property
    def predecessor(self) -> Optional["ChordNode"]:
        self._sync()
        return self._predecessor

    def store(self, key: str, value: Any) -> None:
        self.storage.setdefault(key, set()).add(value)

    def retrieve(self, key: str) -> Set[Any]:
        return set(self.storage.get(key, set()))

    def remove(self, key: str, value: Any = None) -> bool:
        if key not in self.storage:
            return False
        if value is None:
            del self.storage[key]
            return True
        self.storage[key].discard(value)
        if not self.storage[key]:
            del self.storage[key]
        return True

    @property
    def key_count(self) -> int:
        return len(self.storage)

    def closest_preceding_finger(self, key_id: int) -> "ChordNode":
        for finger in reversed(self.fingers):
            if finger.alive and _in_interval(finger.node_id, self.node_id,
                                             key_id):
                return finger
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChordNode({self.name!r}, id={self.node_id})"


class ChordRing:
    """The ring: membership, routing state, lookup, storage with replication.

    Plays the role of DKS in the paper's prototype (§3.4.1): the reservoir
    nodes participating in the Distributed Data Catalog form this ring, and
    ``replication`` successors keep each key alive when volatile nodes
    leave or crash — the property Figure 4's storage scenario depends on.
    """

    def __init__(self, bits: int = 32, replication: int = 2,
                 successor_list_size: int = 4) -> None:
        if bits < 8 or bits > 62:
            raise ValueError("bits must be between 8 and 62")
        if replication < 1:
            raise ValueError("replication must be at least 1")
        self.bits = bits
        self.modulus = 1 << bits
        self.replication = replication
        self.successor_list_size = max(successor_list_size, replication)
        self._nodes: Dict[str, ChordNode] = {}
        #: the index: alive nodes in identifier order, and their identifiers
        self._order: List[ChordNode] = []
        self._ids: List[int] = []
        #: bumped on every membership change; nodes compare it to refresh
        self._version = 0

    # -- membership ---------------------------------------------------------------
    @property
    def nodes(self) -> List[ChordNode]:
        return list(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def get_node(self, name: str) -> ChordNode:
        return self._nodes[name]

    def join(self, name: str) -> ChordNode:
        if name in self._nodes:
            raise ValueError(f"node {name!r} already in the ring")
        node = ChordNode(name, self.bits)
        index = bisect_left(self._ids, node.node_id)
        if index < len(self._ids) and self._ids[index] == node.node_id:
            raise ValueError(f"identifier collision for {name!r}")
        self._nodes[name] = node
        self._order.insert(index, node)
        self._ids.insert(index, node.node_id)
        node._ring = self
        self._version += 1
        # The new node takes over the keys it is now responsible for.
        self._migrate_keys_to(node)
        return node

    def leave(self, name: str) -> None:
        """Graceful departure: keys are handed to the successor first."""
        node = self._nodes.get(name)
        if node is None:
            return
        successor = self.successor_of_node(node)
        if successor is not None:
            for key, values in node.storage.items():  # detlint: ignore[DET004] — storage is filled in put/handover order, which the caller's event order makes deterministic
                for value in values:
                    successor.store(key, value)
        self._drop(node)
        # The successor's own tail replica has not seen the handed-over keys.
        self._restore_replication()

    def fail(self, name: str) -> None:
        """Abrupt failure: the node's local keys are lost (replicas survive)."""
        node = self._nodes.get(name)
        if node is None:
            return
        self._drop(node)
        self._restore_replication()

    def _drop(self, node: ChordNode) -> None:
        index = bisect_left(self._ids, node.node_id)
        del self._order[index]
        del self._ids[index]
        del self._nodes[node.name]
        node.alive = False
        node.storage.clear()
        node._ring = None
        self._version += 1

    # -- routing state --------------------------------------------------------------
    def _refresh(self, node: ChordNode) -> None:
        """Bring one member's predecessor, successor list and fingers up to date."""
        order, ids = self._order, self._ids
        count = len(order)
        index = bisect_left(ids, node.node_id)
        node._predecessor = order[index - 1]
        node._successors = [
            order[(index + 1 + k) % count]
            for k in range(min(self.successor_list_size, count - 1) or 1)
        ]
        node_id, modulus = node.node_id, self.modulus
        node._fingers = [
            order[bisect_left(ids, (node_id + (1 << i)) % modulus) % count]
            for i in range(self.bits)
        ]
        node._version = self._version

    def successor_of(self, key_id: int) -> ChordNode:
        order = self._order
        if not order:
            raise RuntimeError("the ring is empty")
        return order[bisect_left(self._ids, key_id % self.modulus) % len(order)]

    def successor_of_node(self, node: ChordNode) -> Optional[ChordNode]:
        """The first *other* node clockwise of *node* (member or not)."""
        if not self._order:
            return None
        candidate = self.successor_of(node.node_id + 1)
        # Walking clockwise from a node only comes back to it on a 1-node ring.
        return None if candidate is node else candidate

    def replicas_for(self, key_id: int) -> List[ChordNode]:
        """The responsible node followed by its replication successors."""
        order = self._order
        count = len(order)
        if not count:
            return []
        index = bisect_left(self._ids, key_id % self.modulus)
        return [order[(index + k) % count]
                for k in range(min(self.replication, count))]

    # -- lookup --------------------------------------------------------------------
    def lookup(self, key: str, start: Optional[ChordNode] = None) -> LookupResult:
        """Route from *start* to the node responsible for *key* (greedy fingers)."""
        if not self._order:
            raise RuntimeError("the ring is empty")
        key_id = chord_hash(key, self.bits)
        current = start if start is not None and start.alive else self._order[0]
        hops: List[ChordNode] = []
        target = self.successor_of(key_id)
        # Greedy finger routing, bounded to avoid pathological loops.
        for _ in range(2 * self.bits):
            current.requests_served += 1
            if current is target:
                break
            successor = self.successor_of_node(current) or current
            if _in_interval(key_id, current.node_id, successor.node_id,
                            inclusive_right=True):
                hops.append(successor)
                successor.requests_served += 1
                current = successor
                break
            nxt = current.closest_preceding_finger(key_id)
            if nxt is current:
                nxt = successor
            hops.append(nxt)
            current = nxt
        return LookupResult(key_id=key_id, node=target, hops=hops)

    # -- storage --------------------------------------------------------------------
    def put(self, key: str, value: Any,
            start: Optional[ChordNode] = None) -> LookupResult:
        result = self.lookup(key, start)
        for replica in self.replicas_for(result.key_id):
            replica.store(key, value)
        return result

    def get(self, key: str,
            start: Optional[ChordNode] = None) -> Tuple[Set[Any], LookupResult]:
        result = self.lookup(key, start)
        values = result.node.retrieve(key)
        if not values:
            # Fall back to replicas (the primary may have just joined or failed).
            for replica in self.replicas_for(result.key_id):
                values = replica.retrieve(key)
                if values:
                    break
        return values, result

    def delete(self, key: str, value: Any = None,
               start: Optional[ChordNode] = None) -> LookupResult:
        result = self.lookup(key, start)
        for replica in self.replicas_for(result.key_id):
            replica.remove(key, value)
        return result

    # -- maintenance -------------------------------------------------------------------
    def _migrate_keys_to(self, node: ChordNode) -> None:
        """Move keys the new node is now responsible for from its successor."""
        successor = self.successor_of_node(node)
        if successor is None:
            return
        to_move = [
            key for key in successor.storage
            if self.successor_of(chord_hash(key, self.bits)) is node
        ]
        for key in to_move:
            for value in successor.retrieve(key):
                node.store(key, value)
        # The old holder keeps its copy as a replica; replication repair below
        # keeps the invariant tight.
        self._restore_replication()

    def _restore_replication(self) -> None:
        """Ensure every key is present on its current replica set."""
        all_items: List[Tuple[str, Any]] = []
        # Most members of a large ring hold nothing; skip them at list speed.
        for node in [n for n in self._order if n.storage]:
            for key, values in node.storage.items():  # detlint: ignore[DET004] — nodes walked in index order, each storage in its put order; both follow the caller's deterministic event order
                for value in values:
                    all_items.append((key, value))
        for key, value in all_items:
            for replica in self.replicas_for(chord_hash(key, self.bits)):
                replica.store(key, value)

    # -- introspection -----------------------------------------------------------------
    def total_keys(self) -> int:
        seen: Set[str] = set()
        for node in self._order:
            for key in node.storage:
                seen.add(key)
        return len(seen)

    def load_distribution(self) -> Dict[str, int]:
        return {node.name: node.key_count for node in self._order}
