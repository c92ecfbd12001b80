"""Sweep-throughput benchmark: the experiment engine as its own workload.

The paper's evaluation is a grid of independent simulation runs; the
ROADMAP's north star is running them "as fast as the hardware allows".
This harness measures the sweep executor itself on a fixed Figure-3-style
``distribution`` grid, three ways:

* **serial** — ``jobs=1``, no cache: the baseline the old in-process loop
  would have produced;
* **parallel** — ``jobs=N``, no cache: the process-pool path, whose merged
  JSON must be byte-identical to serial (asserted, and recorded as
  ``identical``);
* **warm** — the same sweep against a pre-populated result cache: every
  point must be a hit and nothing may execute.

``benchmarks/test_scale_grid.py`` asserts the invariants and records the
measured walls as the ``sweep-parallel`` BENCH trajectory point.  The
recorded ``cpus`` field is essential context for ``speedup``: a process
pool cannot beat serial on a single effective core, while the warm-cache
speedup is hardware-independent.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Dict, Optional, Sequence

from repro.experiments.cache import ResultCache, code_version_salt, point_key
from repro.experiments.registry import scenario
from repro.experiments.executor import execute_sweep

__all__ = ["run_sweep_parallel"]


@scenario(
    "sweep-parallel",
    title="Sweep executor throughput: serial vs process pool vs cache",
    paper_ref="beyond the paper (BENCH trajectory)",
    group="scale", tags=("bench", "sweep"),
    volatile_keys=("serial_wall_s", "parallel_wall_s", "warm_wall_s",
                   "speedup", "warm_speedup"))
def run_sweep_parallel(
    sizes_mb: Sequence[float] = (50.0, 100.0),
    node_counts: Sequence[int] = (100, 150, 200, 250),
    protocol: str = "ftp",
    jobs: int = 4,
    cache_dir: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """Serial vs ``jobs``-way parallel vs warm-cache wall-clock of one sweep.

    The grid is ``sizes_mb × node_counts`` over the ``distribution``
    scenario (the Figure 3a building block) — independent, CPU-bound
    simulation points of a few hundred milliseconds each, the regime the
    process pool is built for.
    """
    grid = {"size_mb": list(sizes_mb), "n_nodes": list(node_counts)}
    base = {"protocol": protocol, "seed": seed}

    wall = time.perf_counter()
    serial = execute_sweep("distribution", grid, base_params=base, jobs=1)
    serial_wall_s = time.perf_counter() - wall

    wall = time.perf_counter()
    parallel = execute_sweep("distribution", grid, base_params=base,
                             jobs=jobs)
    parallel_wall_s = time.perf_counter() - wall

    identical = serial.to_json() == parallel.to_json()

    # Warm-cache phase: seed the cache from the runs already computed, then
    # re-run the sweep — every point must come back as a hit.
    own_tmp = cache_dir is None
    root = cache_dir or tempfile.mkdtemp(prefix="repro-sweep-bench-")
    cache = ResultCache(root)
    salt = code_version_salt()
    for point in parallel.points:
        if point.ok:
            cache.put(point_key(point.spec.scenario, point.spec.params, salt),
                      point.spec.scenario, point.run)
    wall = time.perf_counter()
    warm = execute_sweep("distribution", grid, base_params=base,
                         jobs=jobs, cache=cache)
    warm_wall_s = time.perf_counter() - wall
    identical = identical and warm.to_json() == serial.to_json()
    if own_tmp:
        shutil.rmtree(root, ignore_errors=True)

    return {
        "scenario": "sweep-parallel",
        "target": "distribution",
        "points": len(serial.points),
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "identical": identical,
        "serial_wall_s": serial_wall_s,
        "parallel_wall_s": parallel_wall_s,
        "warm_wall_s": warm_wall_s,
        "speedup": serial_wall_s / max(parallel_wall_s, 1e-9),
        "warm_speedup": serial_wall_s / max(warm_wall_s, 1e-9),
        "warm_cache_hits": warm.stats.cache_hits,
        "warm_executed": warm.stats.executed,
        "failed": serial.stats.failed + parallel.stats.failed
                  + warm.stats.failed,
    }
