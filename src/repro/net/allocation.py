"""Bandwidth-allocation strategies for the flow-level network model.

The network delegates max-min fair sharing to an *allocator*.  Two
implementations with identical observable results are provided — one
runtime path and the reference the tests hold it to:

* :class:`DenseAllocator` — the reference implementation: every allocation
  pass rebuilds the constraint set from scratch and runs progressive filling
  with a full scan per bottleneck round.  Per pass this is O(F·R) work with
  R bottleneck rounds (worst case O(F²)), plus O(F) allocations for the
  constraint dictionaries.  Kept as the oracle for equivalence tests and as
  the baseline the scaling benchmark measures against
  (``Network(allocator="dense", coalesce=False)``).

* :class:`IncrementalAllocator` — constraint membership is maintained
  incrementally as flows arrive and depart, so an allocation pass touches
  only existing :class:`Constraint` objects; bottleneck selection uses a
  lazy min-heap keyed by the current fair share, making one pass
  O((F + C)·log C) for F active flows crossing C constraints.  The pass
  keeps its state (remaining capacity, unfixed-member count) on the
  constraints themselves and each flow's membership lists the constraint
  objects, so the inner loop does attribute reads instead of tuple-keyed
  dict lookups and enters no other Python function.  The default, and the
  only allocator scenarios run.

Both compute the *unique* max-min fair allocation subject to the same
constraints (per-flow rate caps, host uplink/downlink, WAN cluster
gateways, minus reserved background rates), so simulated completion times
are identical whichever is plugged in — a property pinned by the
hypothesis oracle tests in ``tests/test_property_based.py``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Constraint",
    "DenseAllocator",
    "IncrementalAllocator",
    "constraint_keys",
    "make_allocator",
]


class Constraint:
    """A capacity constraint over a set of flows (one link direction)."""

    __slots__ = ("key", "capacity", "reserved", "members", "provider",
                 "remaining", "count")

    def __init__(self, key: Tuple, capacity: float):
        self.key = key
        self.capacity = capacity
        self.reserved = 0.0
        #: fids of the active flows crossing this constraint (maintained by
        #: the incremental allocator; unused by the dense one).
        self.members: set = set()
        #: (kind, obj) the capacity is read from at allocation time, so a
        #: mid-simulation change to a host's link speed takes effect on the
        #: next pass — matching the dense allocator's per-pass rebuild.
        self.provider: Optional[Tuple[str, object]] = None
        #: Pass state of the incremental allocator, reset at the start of
        #: every pass: capacity left and members not yet fixed.
        self.remaining = 0.0
        self.count = 0

    @property
    def effective_capacity(self) -> float:
        return max(0.0, self.capacity - self.reserved)


def constraint_keys(flow, gateways: Dict[str, Tuple[float, float]]) -> List[Tuple]:
    """The constraint keys a flow crosses, in canonical order."""
    keys: List[Tuple] = []
    if flow.rate_cap_mbps is not None:
        keys.append(("flow-cap", flow.fid))
    keys.append(("host-up", flow.src.uid))
    keys.append(("host-down", flow.dst.uid))
    if flow.src.cluster != flow.dst.cluster:
        if flow.src.cluster in gateways:
            keys.append(("wan-egress", flow.src.cluster))
        if flow.dst.cluster in gateways:
            keys.append(("wan-ingress", flow.dst.cluster))
    return keys


def _constraint_capacity(key: Tuple, flow,
                         gateways: Dict[str, Tuple[float, float]]) -> float:
    kind = key[0]
    if kind == "flow-cap":
        return flow.rate_cap_mbps
    if kind == "host-up":
        return flow.src.uplink_mbps
    if kind == "host-down":
        return flow.dst.downlink_mbps
    if kind == "wan-egress":
        return gateways[key[1]][0]
    return gateways[key[1]][1]   # wan-ingress


class DenseAllocator:
    """Reference allocator: full rebuild + full-scan progressive filling."""

    name = "dense"

    def __init__(self) -> None:
        self.gateways: Dict[str, Tuple[float, float]] = {}

    # The dense allocator is stateless w.r.t. flows.
    def flow_added(self, flow) -> None:
        pass

    def flow_removed(self, flow) -> None:
        pass

    def rebuild(self, active: Iterable) -> None:
        pass

    def allocate(self, active: List, background: Dict[Tuple, float]) -> Dict[int, float]:
        """Max-min fair allocation via progressive filling (full scans)."""
        if not active:
            return {}
        constraints: Dict[Tuple, Constraint] = {}
        membership: Dict[int, List[Tuple]] = {}
        for flow in active:
            keys = constraint_keys(flow, self.gateways)
            for key in keys:
                if key not in constraints:
                    con = Constraint(key, _constraint_capacity(key, flow,
                                                               self.gateways))
                    con.reserved = background.get(key, 0.0)
                    constraints[key] = con
            membership[flow.fid] = keys

        remaining_capacity = {
            key: con.effective_capacity for key, con in constraints.items()  # detlint: ignore[DET004] — dict→dict rebuild; constraints is filled in deterministic flow order
        }
        unfixed = {flow.fid: flow for flow in active}
        rates: Dict[int, float] = {}

        while unfixed:
            # For each constraint, the fair share available to its unfixed flows.
            best_share = math.inf
            best_key = None
            counts: Dict[Tuple, int] = {}
            for fid in unfixed:
                for key in membership[fid]:
                    counts[key] = counts.get(key, 0) + 1
            if not counts:
                break
            for key, count in counts.items():  # detlint: ignore[DET004] — first-minimum tie-break over deterministic insertion order IS the pinned reference semantics; sorting would change allocations
                share = remaining_capacity[key] / count
                if share < best_share:
                    best_share = share
                    best_key = key
            if best_key is None:  # pragma: no cover - defensive
                break
            best_share = max(0.0, best_share)
            # Fix every unfixed flow crossing the bottleneck constraint.
            fixed_now = [
                fid for fid in unfixed if best_key in membership[fid]
            ]
            for fid in fixed_now:
                rates[fid] = best_share
                for key in membership[fid]:
                    remaining_capacity[key] = max(
                        0.0, remaining_capacity[key] - best_share
                    )
                del unfixed[fid]
        return rates


class IncrementalAllocator:
    """Incrementally maintained membership + heap-based progressive filling."""

    name = "incremental"

    def __init__(self) -> None:
        self.gateways: Dict[str, Tuple[float, float]] = {}
        self._constraints: Dict[Tuple, Constraint] = {}
        #: fid -> the flow's constraints, in canonical key order
        self._membership: Dict[int, List[Constraint]] = {}
        self._push_seq = itertools.count()

    # -- membership maintenance -------------------------------------------
    def flow_added(self, flow) -> None:
        crossed: List[Constraint] = []
        for key in constraint_keys(flow, self.gateways):
            con = self._constraints.get(key)
            if con is None:
                con = Constraint(key, _constraint_capacity(key, flow,
                                                           self.gateways))
                kind = key[0]
                if kind == "flow-cap":
                    con.provider = ("flow-cap", flow)
                elif kind == "host-up":
                    con.provider = ("host-up", flow.src)
                elif kind == "host-down":
                    con.provider = ("host-down", flow.dst)
                else:   # wan-egress / wan-ingress
                    con.provider = (kind, key[1])
                self._constraints[key] = con
            con.members.add(flow.fid)
            crossed.append(con)
        self._membership[flow.fid] = crossed

    def flow_removed(self, flow) -> None:
        # A constraint is dropped only once it has no members, so every
        # constraint a live flow lists is still the one in ``_constraints``.
        crossed = self._membership.pop(flow.fid, None)
        if crossed is None:
            return
        for con in crossed:
            con.members.discard(flow.fid)
            if not con.members:
                del self._constraints[con.key]

    def rebuild(self, active: Iterable) -> None:
        """Recompute membership from scratch (topology changed mid-flight)."""
        self._constraints.clear()
        self._membership.clear()
        for flow in active:
            self.flow_added(flow)

    # -- allocation --------------------------------------------------------
    def allocate(self, active: List, background: Dict[Tuple, float]) -> Dict[int, float]:
        """One progressive-filling pass over the maintained constraints.

        Bottlenecks are found with a lazy min-heap of ``(share, push seq,
        constraint)`` entries, keyed by ``remaining / count``; a popped
        entry whose share is stale (its constraint lost members or capacity
        since the push) is re-pushed with the current value.  The pass state
        lives on the constraints: the seeding loop resets every
        constraint's ``remaining`` (live capacity minus background load,
        floored at zero) and ``count`` (its member total), and fixing a flow
        walks the flow's constraint objects to subtract its share.

        Cost: one seeding visit per constraint, one heap pop per genuine
        bottleneck or stale entry, and per fixed flow one dict store plus
        one attribute update per constraint it crosses — O((F + C)·log C)
        with no call into any other Python function.  Progressive filling
        fixes at least one flow per genuine pop, so the pass does O(F + C)
        pushes overall.
        """
        if not active:
            return {}
        gateways = self.gateways
        heap: List[Tuple[float, int, Constraint]] = []
        seq = self._push_seq
        for con in self._constraints.values():  # detlint: ignore[DET004] — heap seeded in maintained constraint order; ties broken by the explicit push seq, mirroring the dense reference bit-for-bit
            kind, obj = con.provider
            if kind == "host-down":
                cap = obj.downlink_mbps
            elif kind == "host-up":
                cap = obj.uplink_mbps
            elif kind == "flow-cap":
                cap = obj.rate_cap_mbps
            elif kind == "wan-egress":
                cap = gateways[obj][0]
            else:   # wan-ingress
                cap = gateways[obj][1]
            if background:
                cap -= background.get(con.key, 0.0)
            if not cap > 0.0:
                cap = 0.0
            con.remaining = cap
            count = con.count = len(con.members)
            heap.append((cap / count, next(seq), con))
        heapq.heapify(heap)

        rates: Dict[int, float] = {}
        membership = self._membership
        heappop = heapq.heappop
        n_unfixed = len(active)
        while heap and n_unfixed > 0:
            share, _, con = heappop(heap)
            count = con.count
            if count <= 0:
                continue   # all members already fixed through other constraints
            current = con.remaining / count
            if current > share:
                # Stale entry: members were fixed elsewhere since the push.
                heapq.heappush(heap, (current, next(seq), con))
                continue
            share = current if current > 0.0 else 0.0
            for fid in sorted(con.members.difference(rates)):
                rates[fid] = share
                n_unfixed -= 1
                for other in membership[fid]:
                    left = other.remaining - share
                    other.remaining = left if left > 0.0 else 0.0
                    other.count -= 1
            con.count = 0
        return rates


def make_allocator(name: str):
    if name == "dense":
        return DenseAllocator()
    if name == "incremental":
        return IncrementalAllocator()
    raise ValueError(f"unknown allocator {name!r}; "
                     f"use 'dense' or 'incremental'")
