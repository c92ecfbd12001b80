"""The five workloads: what is called, and how its outcome is read.

Each workload is one ``run_spec`` call with *size* parameters only — no
``scheduler=`` / ``allocator=`` / ``placement=`` knob — so the benchmark
measures what a user gets by default and keeps working when the strategy
zoo is collapsed.

``Workload.summarise`` reads the run's *simulated statistics* (the
correctness reference pinned in ``expected.json``) and the domain-operation
counts behind ``ops_per_s`` / ``failed`` from the same result fields.  It
never reads spec echoes, knob names or implementation counters
(``processed_events``, ``allocation_passes``) that a legitimate optimisation
may change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Summary", "Workload"]

#: The seed ``expected.json`` is pinned at.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Summary:
    """One run's outcome: simulated statistics plus operation counts."""

    stats: Dict[str, Any]
    attempted: int
    failed: int


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    why: str
    #: size parameters of the full workload
    params: Mapping[str, Any]
    #: reduced sizes for ``--quick`` (the tier-1 smoke test)
    quick: Mapping[str, Any]
    #: whether the scenario takes a ``seed``
    seeded: bool
    #: ``(ScenarioResult.results, resolved spec params) -> Summary``
    summarise: Callable[[Any, Mapping[str, Any]], Summary] = field(repr=False)

    def spec_params(self, seed: int, quick: bool) -> Dict[str, Any]:
        params = dict(self.quick if quick else self.params)
        if self.seeded:
            params["seed"] = seed
        return params


def _grid(results: Mapping[str, Any], params: Mapping[str, Any]) -> Summary:
    """Placement storms: every datum placed, every replica downloaded."""
    n_data = int(params["n_data"])
    downloads = n_data * min(int(params["replica"]), int(params["n_hosts"]))
    placed, downloaded = int(results["placed"]), int(results["downloaded"])
    return Summary(
        stats={"placed": placed, "downloaded": downloaded,
               "sim_time_s": results["sim_time_s"],
               "completed_flows": int(results["completed_flows"])},
        attempted=n_data + downloads,
        failed=(n_data - placed) + max(0, downloads - downloaded))


def _fig3a(rows: List[Mapping[str, Any]], _params: Mapping[str, Any]) -> Summary:
    cells = [{"protocol": row["protocol"], "size_mb": row["size_mb"],
              "n_nodes": int(row["n_nodes"]),
              "completion_s": row["completion_s"],
              "completed_nodes": int(row["completed_nodes"])}
             for row in rows]
    attempted = sum(cell["n_nodes"] for cell in cells)
    completed = sum(cell["completed_nodes"] for cell in cells)
    return Summary({"cells": cells}, attempted, attempted - completed)


def _fig5(rows: List[Mapping[str, Any]], _params: Mapping[str, Any]) -> Summary:
    runs = [{"protocol": row["protocol"], "n_workers": int(row["n_workers"]),
             "makespan_s": row["makespan_s"],
             "results_collected": int(row["results_collected"])}
            for row in rows]
    attempted = sum(int(row["n_tasks"]) for row in rows)
    collected = sum(run["results_collected"] for run in runs)
    return Summary({"runs": runs}, attempted, attempted - collected)


def _fabric_day(results: Mapping[str, Any], _params: Mapping[str, Any]) -> Summary:
    stats: Dict[str, Any] = {}
    attempted = failed = 0
    for arm in ("fixed", "autoscaled"):
        row = results[arm]
        stats[arm] = {"completed": int(row["completed"]),
                      "violation_seconds": row["violation_seconds"],
                      "worst_p99_ms": row["worst_p99_ms"]}
        attempted += int(row["arrivals"])
        # An errored or lost request never completes, so it is already in
        # the difference; the explicit terms guard a run that miscounts.
        failed += max(int(row["arrivals"]) - int(row["completed"]),
                      int(row["errors"]) + int(row["lost_requests"]))
    return Summary(stats, attempted, failed)


_ALL: Tuple[Workload, ...] = (
    Workload(
        name="storm-100k", scenario="scale-grid-100k",
        why="Timer storm at 100k hosts, 1M events: kernel + event scheduler "
            "+ placement; zero dht, rpc, core. The workload a dht change "
            "must not move.",
        params={},
        quick={"n_hosts": 1000, "n_data": 250, "cohort_size": 250},
        seeded=False, summarise=_grid),
    Workload(
        name="runtime-grid", scenario="scale-grid",
        why="Full pull-mode runtime (agents, RPC, DC/DR/DT/DS, DB, flows); "
            "dht.chord dominates, sim.* is small. The workload a kernel "
            "speed-up must not move.",
        params={"n_hosts": 500, "n_data": 2500},
        quick={"n_hosts": 40, "n_data": 120},
        seeded=True, summarise=_grid),
    Workload(
        name="fig3a-grid", scenario="fig3a",
        why="Paper transfer layer (Fig. 3a, 18 cells): BitTorrent swarms, "
            "many-to-many flows, the opposite net.allocation regime from "
            "storm-100k's single bottleneck.",
        params={},
        quick={"sizes_mb": [10], "node_counts": [10]},
        seeded=True, summarise=_fig3a),
    Workload(
        name="fig5-blast", scenario="fig5",
        why="Paper application layer (Fig. 5, 6 BLAST runs): run(until=t) "
            "polling, generator-process heavy. A scheduler change that wins "
            "storm-100k and loses here shows.",
        params={},
        quick={"worker_counts": [10]},
        seeded=True, summarise=_fig5),
    Workload(
        name="fabric-day", scenario="fabric-autoscale",
        why="Request path rpc -> router -> database under a diurnal trace "
            "(open loop in simulated time) with live shard migration; "
            "almost no flows.",
        params={},
        quick={"horizon_s": 6.0, "period_s": 6.0, "flash_at_s": 3.3,
               "flash_duration_s": 0.4, "ring_vnodes": 8, "n_keys": 40},
        seeded=True, summarise=_fabric_day),
)

WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in _ALL}
