"""Complexity pin for the Chord ring index.

Building a ring of ``n`` nodes and routing ten lookups from every node is
``O(n log² n)`` on the indexed ring: each join is a bisect insert, each
lookup visits ``O(log n)`` nodes, scans each one's finger table from the
top (a longer scan the closer the route gets) and refreshes its fingers at
most once.  The implementation it replaced rebuilt all ``n × bits`` fingers
on every join and re-sorted the membership on every hop.

The pin is a count, not a timing: Python-level calls into the ring's own
module plus ``bisect`` C calls, taken under ``sys.setprofile``.  Node ids
are SHA-1 of the names, so the count repeats exactly on one interpreter
(list comprehensions are calls before Python 3.12, so it shifts a little
between versions; the ratio barely does).  2,000 vs 500 nodes measured
1,679,636 / 333,174 = 5.04 on this ring and 821,799,458 / 46,592,966 =
17.6 on ``tests/test_dht_oracle.py``'s ``ReferenceRing`` (CPython 3.11,
nine minutes under the profiler, so taken once); the bound sits near
their geometric mean, 9.4.  The timings (≈ 6 and ≈ 23) are still printed.
"""

from __future__ import annotations

import gc
import sys
import time
from types import FrameType
from typing import Any

from repro.bench.reporting import format_table
from repro.dht.chord import ChordRing

from benchmarks.conftest import emit

#: 2,000-node / 500-node call count: 5.04 here, 17.6 on the replaced ring.
MAX_COUNT_RATIO = 9.0


def _build_and_route(ring_cls: type, n_nodes: int,
                     lookups_per_node: int = 10) -> float:
    start = time.perf_counter()
    ring = ring_cls()
    nodes = [ring.join(f"host-{i:05d}") for i in range(n_nodes)]
    for i, node in enumerate(nodes):
        for j in range(lookups_per_node):
            ring.lookup(f"key-{i}-{j}", node)
    return time.perf_counter() - start


def _count_ring_calls(ring_cls: type, n_nodes: int) -> int:
    """Calls into *ring_cls*'s module plus ``bisect`` C calls."""
    filename = sys.modules[ring_cls.__module__].__file__
    count = 0

    def on_event(frame: FrameType, event: str, arg: Any) -> None:
        nonlocal count
        if event == "call":
            count += frame.f_code.co_filename == filename
        elif event == "c_call":
            count += arg.__module__ == "_bisect"

    sys.setprofile(on_event)
    try:
        _build_and_route(ring_cls, n_nodes)
    finally:
        sys.setprofile(None)
    return count


def test_ring_build_and_route_scales_near_linearly():
    small, large = (_count_ring_calls(ChordRing, n) for n in (500, 2000))
    assert small == _count_ring_calls(ChordRing, 500), "count is not repeatable"

    gc.collect()
    gc.disable()
    try:
        # Interleaved, so a host that slows mid-test slows both sizes.
        runs = [(_build_and_route(ChordRing, 500),
                 _build_and_route(ChordRing, 2000)) for _ in range(3)]
    finally:
        gc.enable()
    small_s, large_s = (min(times) for times in zip(*runs))
    emit("Chord ring: join n nodes + 10 lookups per node", format_table([
        {"nodes": 500, "ring_calls": small, "best_of_3_s": small_s},
        {"nodes": 2000, "ring_calls": large, "best_of_3_s": large_s},
        {"nodes": "ratio (replaced ring: 17.6 calls, 23 time)",
         "ring_calls": large / small, "best_of_3_s": large_s / small_s},
    ]))
    assert large / small < MAX_COUNT_RATIO, \
        f"2000 vs 500 nodes made {large / small:.2f}x the ring calls"
