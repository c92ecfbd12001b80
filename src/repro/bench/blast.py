"""BLAST master/worker harness: Figures 5 and 6.

Figure 5: total execution time (broadcast of the Genebase + Sequences plus
BLAST execution) as a function of the number of workers, with the shared
files distributed over FTP vs BitTorrent.  The paper runs 10..275 workers on
Grid'5000 with a 2.68 GB Genebase; FTP grows steeply with worker count while
BitTorrent stays nearly flat.

Figure 6: breakdown of the total execution time (transfer / unzip /
execution) per cluster for a 400-node deployment over the four clusters of
Table 1, for both protocols; BitTorrent shrinks the transfer component by
roughly an order of magnitude.

Simulation-cost knobs (``sync_period_s``, ``monitor_period_s``) default to
coarser values than the micro-benchmarks: the BLAST runs last thousands of
simulated seconds and the paper itself notes that real deployments poll far
less aggressively (§4.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.blast import BlastParameters, build_blast_application
from repro.core.runtime import BitDewEnvironment
from repro.experiments.registry import scenario
from repro.net.topology import cluster_topology, grid5000_testbed
from repro.sim.kernel import Environment
from repro.transfer.registry import default_registry

__all__ = ["run_blast_once", "run_fig5", "run_fig6"]


@scenario(
    "blast",
    title="One BLAST master/worker run",
    paper_ref="Figures 5-6 building block (§5)",
    tags=("apps",),
    sizes={"reduced": {"n_workers": 8, "transfer_protocol": "bittorrent"}})
def run_blast_once(
    n_workers: int,
    transfer_protocol: str,
    topology: str = "cluster",
    n_tasks: Optional[int] = None,
    parameters: Optional[BlastParameters] = None,
    sync_period_s: float = 30.0,
    monitor_period_s: float = 10.0,
    max_data_schedule: int = 2,
    deadline_s: float = 50_000.0,
    bittorrent_mode: str = "fluid",
    seed: int = 0,
) -> Dict[str, object]:
    """One BLAST master/worker run: the metrics derived from its report."""
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    env = Environment()
    if topology == "cluster":
        topo = cluster_topology(env, n_workers=n_workers)
    elif topology == "grid5000":
        topo = grid5000_testbed(env, total_nodes=n_workers)
    else:
        raise ValueError("topology must be 'cluster' or 'grid5000'")

    registry = default_registry(env, topo.network, bittorrent_mode=bittorrent_mode)
    runtime = BitDewEnvironment(
        topo, registry=registry,
        sync_period_s=sync_period_s,
        monitor_period_s=monitor_period_s,
        max_data_schedule=max_data_schedule,
        heartbeat_period_s=max(1.0, sync_period_s / 2.0),
        seed=seed,
    )
    tasks = n_tasks if n_tasks is not None else len(topo.worker_hosts)
    app = build_blast_application(
        runtime, master_host=topo.service_host, n_tasks=tasks,
        transfer_protocol=transfer_protocol, parameters=parameters,
    )
    app.register_workers()
    report = app.run(deadline_s=deadline_s, poll_s=sync_period_s)
    breakdown = report.mean_breakdown()
    return {
        "protocol": transfer_protocol,
        "n_workers": float(n_workers),
        "n_tasks": float(tasks),
        "makespan_s": report.makespan_s,
        "tasks_executed": float(report.tasks_executed),
        "results_collected": float(report.results_collected),
        "mean_transfer_s": breakdown["transfer_s"],
        "mean_unzip_s": breakdown["unzip_s"],
        "mean_execution_s": breakdown["execution_s"],
        "breakdown_by_cluster": report.breakdown_by_cluster(),
    }


@scenario(
    "fig5",
    title="BLAST total execution time vs worker count, per protocol",
    paper_ref="Figure 5 (§5)",
    tags=("apps",),
    sizes={"reduced": {"worker_counts": [10, 20]},
           "quick": {"worker_counts": [10, 50, 100]},
           # §5: 10 to 275 workers.
           "paper": {"worker_counts": [10, 20, 50, 100, 150, 200, 250, 275]}})
def run_fig5(
    worker_counts: Sequence[int] = (10, 50, 150),
    protocols: Sequence[str] = ("ftp", "bittorrent"),
    **kwargs,
) -> List[Dict[str, object]]:
    """Total BLAST execution time vs number of workers, per protocol."""
    rows = []
    for protocol in protocols:
        for workers in worker_counts:
            result = run_blast_once.scenario_impl(
                workers, protocol, topology="cluster", **kwargs)
            rows.append(result)
    return rows


@scenario(
    "fig6",
    title="BLAST per-cluster breakdown (transfer/unzip/execution)",
    paper_ref="Figure 6 (§5)",
    tags=("apps",),
    sizes={"reduced": {"total_nodes": 20},
           "quick": {"total_nodes": 80},
           # §5: 400 nodes over the four Grid'5000 clusters of Table 1.
           "paper": {"total_nodes": 400}})
def run_fig6(
    total_nodes: int = 100,
    protocols: Sequence[str] = ("ftp", "bittorrent"),
    **kwargs,
) -> List[Dict[str, object]]:
    """Per-cluster breakdown (transfer / unzip / execution) on Grid'5000."""
    rows = []
    for protocol in protocols:
        result = run_blast_once.scenario_impl(
            total_nodes, protocol, topology="grid5000", **kwargs)
        for cluster, values in result["breakdown_by_cluster"].items():
            rows.append({
                "protocol": protocol,
                "cluster": cluster,
                "transfer_s": values["transfer_s"],
                "unzip_s": values["unzip_s"],
                "execution_s": values["execution_s"],
                "tasks": values["tasks"],
            })
        mean = result  # overall means
        rows.append({
            "protocol": protocol,
            "cluster": "mean",
            "transfer_s": mean["mean_transfer_s"],
            "unzip_s": mean["mean_unzip_s"],
            "execution_s": mean["mean_execution_s"],
            "tasks": mean["tasks_executed"],
        })
    return rows
