"""Complexity pin for the Chord ring index.

Building a ring of ``n`` nodes and routing ten lookups from every node is
``O(n log² n)`` on the indexed ring: each join is a bisect insert, each
lookup visits ``O(log n)`` nodes, scans each one's finger table from the
top (a longer scan the closer the route gets) and refreshes its fingers at
most once.  The implementation it replaced rebuilt all ``n × bits`` fingers
on every join and re-sorted the membership on every hop.

The assertion is a ratio of two timings taken in this process, so it
carries no host-speed floor: 2,000 vs 500 nodes predicts ≈ 6 for
``n log² n``; this ring measured 5.1–7.9 over fourteen runs of this test
and the replaced one 23 (8.2 s → 191 s).  The bound sits between the two,
near their geometric mean.
"""

from __future__ import annotations

import gc
import time

from repro.bench.reporting import format_table
from repro.dht.chord import ChordRing

from benchmarks.conftest import emit


def _build_and_route(n_nodes: int, lookups_per_node: int = 10) -> float:
    start = time.perf_counter()
    ring = ChordRing()
    nodes = [ring.join(f"host-{i:05d}") for i in range(n_nodes)]
    for i, node in enumerate(nodes):
        for j in range(lookups_per_node):
            ring.lookup(f"key-{i}-{j}", node)
    return time.perf_counter() - start


def test_ring_build_and_route_scales_near_linearly():
    gc.collect()
    gc.disable()
    try:
        # Interleaved, so a host that slows mid-test slows both sizes.
        runs = [(_build_and_route(500), _build_and_route(2000))
                for _ in range(3)]
    finally:
        gc.enable()
    small, large = (min(times) for times in zip(*runs))
    ratio = large / small
    emit("Chord ring: join n nodes + 10 lookups per node", format_table([
        {"nodes": 500, "best_of_3_s": small},
        {"nodes": 2000, "best_of_3_s": large},
        {"nodes": "ratio (n log² n ≈ 6, replaced ring 23)", "best_of_3_s": ratio},
    ]))
    assert ratio < 12, f"2000 vs 500 nodes took {ratio:.1f}x"
