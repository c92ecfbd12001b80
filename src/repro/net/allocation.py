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
  O((F + C)·log C) for F active flows crossing C constraints.  The
  default, and the only allocator scenarios run.

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

    __slots__ = ("key", "capacity", "reserved", "members", "provider")

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
        #: fid -> constraint keys, in canonical order
        self._membership: Dict[int, List[Tuple]] = {}
        self._push_seq = itertools.count()

    # -- membership maintenance -------------------------------------------
    def flow_added(self, flow) -> None:
        keys = constraint_keys(flow, self.gateways)
        for key in keys:
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
        self._membership[flow.fid] = keys

    def _live_capacity(self, con: Constraint) -> float:
        kind, obj = con.provider
        if kind == "flow-cap":
            return obj.rate_cap_mbps
        if kind == "host-up":
            return obj.uplink_mbps
        if kind == "host-down":
            return obj.downlink_mbps
        if kind == "wan-egress":
            return self.gateways[obj][0]
        return self.gateways[obj][1]   # wan-ingress

    def flow_removed(self, flow) -> None:
        keys = self._membership.pop(flow.fid, None)
        if keys is None:
            return
        for key in keys:
            con = self._constraints.get(key)
            if con is None:
                continue
            con.members.discard(flow.fid)
            if not con.members:
                del self._constraints[key]

    def rebuild(self, active: Iterable) -> None:
        """Recompute membership from scratch (topology changed mid-flight)."""
        self._constraints.clear()
        self._membership.clear()
        for flow in active:
            self.flow_added(flow)

    # -- allocation --------------------------------------------------------
    def allocate(self, active: List, background: Dict[Tuple, float]) -> Dict[int, float]:
        """One progressive-filling pass over the maintained constraints.

        Bottlenecks are found with a lazy min-heap: each constraint is keyed
        by ``remaining / unfixed_count``; a popped entry whose share is stale
        (its constraint lost members or capacity since the push) is re-pushed
        with the current value.  Progressive filling fixes at least one flow
        per genuine pop, so the pass does O(F + C) pushes overall.
        """
        if not active:
            return {}
        constraints = self._constraints
        remaining: Dict[Tuple, float] = {}
        counts: Dict[Tuple, int] = {}
        heap: List[Tuple[float, int, Tuple]] = []
        seq = self._push_seq
        for key, con in constraints.items():  # detlint: ignore[DET004] — heap seeded in maintained constraint order; ties broken by the explicit push seq, mirroring the dense reference bit-for-bit
            cap = max(0.0, self._live_capacity(con) - background.get(key, 0.0))
            remaining[key] = cap
            counts[key] = len(con.members)
            heap.append((cap / len(con.members), next(seq), key))
        heapq.heapify(heap)

        rates: Dict[int, float] = {}
        membership = self._membership
        n_unfixed = len(active)
        while heap and n_unfixed > 0:
            share, _, key = heapq.heappop(heap)
            count = counts[key]
            if count <= 0:
                continue   # all members already fixed through other constraints
            current = remaining[key] / count
            if current > share:
                # Stale entry: members were fixed elsewhere since the push.
                heapq.heappush(heap, (current, next(seq), key))
                continue
            share = max(0.0, current)
            fixed_now = sorted(
                fid for fid in constraints[key].members if fid not in rates
            )
            for fid in fixed_now:
                rates[fid] = share
                n_unfixed -= 1
                for other in membership[fid]:
                    remaining[other] = max(0.0, remaining[other] - share)
                    counts[other] -= 1
            counts[key] = 0
        return rates


def make_allocator(name: str):
    if name == "dense":
        return DenseAllocator()
    if name == "incremental":
        return IncrementalAllocator()
    raise ValueError(f"unknown allocator {name!r}; "
                     f"use 'dense' or 'incremental'")
