"""Max-min fair bandwidth allocation for the flow-level network model.

:class:`IncrementalAllocator` is the network's one allocator.  Constraint
membership is maintained incrementally as flows arrive and depart, so an
allocation pass touches only existing :class:`Constraint` objects;
bottleneck selection uses a lazy min-heap keyed by the current fair share,
making one pass O((F + C)·log C) for F active flows crossing C constraints.
The pass keeps its state (remaining capacity, unfixed-member count) on the
constraints themselves and each flow's membership lists the constraint
objects, so the inner loop does attribute reads instead of tuple-keyed dict
lookups and enters no other Python function.

It computes the *unique* max-min fair allocation subject to per-flow rate
caps, host uplink/downlink, WAN cluster gateways, minus reserved background
rates.  Its reference is a dense allocator that rebuilds every constraint
and rescans every flow per bottleneck round, run one pass per flow event by
``DenseNetwork`` in ``tests/test_property_based.py``.
The hypothesis oracles there and in ``tests/test_net_settle_oracle.py``
require identical rates and completion times from both.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, List, Tuple

__all__ = ["Constraint", "IncrementalAllocator", "constraint_keys"]


class Constraint:
    """A capacity constraint over a set of flows (one link direction)."""

    __slots__ = ("key", "members", "provider", "remaining", "count")

    def __init__(self, key: Tuple, provider: Tuple[str, object]):
        self.key = key
        #: fids of the active flows crossing this constraint.
        self.members: set = set()
        #: (kind, obj) the capacity is read from at allocation time, so a
        #: mid-simulation change to a host's link speed takes effect on the
        #: next pass.
        self.provider = provider
        #: Pass state of the incremental allocator, reset at the start of
        #: every pass: capacity left and members not yet fixed.
        self.remaining = 0.0
        self.count = 0


def constraint_keys(flow, gateways: Dict[str, float]) -> List[Tuple]:
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


class IncrementalAllocator:
    """Incrementally maintained membership + heap-based progressive filling."""

    def __init__(self) -> None:
        self.gateways: Dict[str, float] = {}
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
                kind = key[0]
                if kind == "flow-cap":
                    provider = flow
                elif kind == "host-up":
                    provider = flow.src
                elif kind == "host-down":
                    provider = flow.dst
                else:   # wan-egress / wan-ingress: the cluster name
                    provider = key[1]
                con = self._constraints[key] = Constraint(key, (kind, provider))
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
        for con in self._constraints.values():  # detlint: ignore[DET004] — heap seeded in maintained constraint order; ties broken by the explicit push seq, mirroring the dense test reference bit-for-bit
            kind, obj = con.provider
            if kind == "host-down":
                cap = obj.downlink_mbps
            elif kind == "host-up":
                cap = obj.uplink_mbps
            elif kind == "flow-cap":
                cap = obj.rate_cap_mbps
            else:   # wan-egress, wan-ingress
                cap = gateways[obj]
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
