"""Transfer-benchmark harness: Figures 3a, 3b and 3c.

The paper's setup (§4.3): the D* services, the FTP server and the BitTorrent
seeder all run on the same node of the GdX cluster; BitDew replicates a file
of 10..500 MB to 10..250 nodes; the DT heartbeat monitors transfers every
500 ms and the DS synchronises every second to maximise protocol pressure.

* :func:`run_ftp_alone` — the baseline: the same file distributed to the
  same nodes with the raw FTP protocol, no BitDew runtime involved.
* :func:`run_distribution` — the BitDew-driven distribution with a chosen
  out-of-band protocol (FTP or BitTorrent).
* :func:`run_fig3a` — completion-time grid for both protocols (Figure 3a).
* :func:`run_fig3bc` — BitDew+FTP vs FTP-alone overhead, in percent
  (Figure 3b) and in seconds (Figure 3c).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.attributes import Attribute
from repro.core.runtime import BitDewEnvironment
from repro.experiments.registry import scenario
from repro.net.topology import cluster_topology
from repro.sim.kernel import Environment
from repro.storage.filesystem import FileContent, LocalFileSystem
from repro.transfer.ftp import FTPProtocol
from repro.transfer.oob import TransferEndpoint

__all__ = ["run_distribution", "run_fig3a", "run_fig3bc", "run_ftp_alone"]


@scenario(
    "ftp-alone",
    title="Baseline file distribution with raw FTP, no BitDew runtime",
    paper_ref="Figure 3b/3c baseline (§4.3)",
    tags=("transfer",),
    sizes={"reduced": {"size_mb": 2.0, "n_nodes": 4}})
def run_ftp_alone(size_mb: float, n_nodes: int,
                  server_link_mbps: float = 125.0,
                  node_link_mbps: float = 125.0) -> Dict[str, float]:
    """Distribute one file to *n_nodes* with the raw FTP protocol only."""
    if size_mb <= 0 or n_nodes <= 0:
        raise ValueError("size_mb and n_nodes must be positive")
    env = Environment()
    topo = cluster_topology(env, n_workers=n_nodes,
                            server_link_mbps=server_link_mbps,
                            node_link_mbps=node_link_mbps)
    server = topo.service_host
    server_fs = LocalFileSystem(owner=server.name)
    content = FileContent.from_seed("payload.bin", size_mb)
    server_fs.write("payload.bin", content)
    protocol = FTPProtocol(env, topo.network)

    handles = []
    for worker in topo.worker_hosts:
        worker_fs = LocalFileSystem(owner=worker.name)
        handle = protocol.create_handle(
            content,
            source=TransferEndpoint(server, server_fs, "payload.bin"),
            destination=TransferEndpoint(worker, worker_fs, "payload.bin"),
        )
        protocol.non_blocking_receive(handle)
        handles.append(handle)

    env.run(until=env.all_of([h.done for h in handles]))
    completion = max(h.end_time for h in handles)
    return {
        "size_mb": float(size_mb),
        "n_nodes": float(n_nodes),
        "completion_s": completion,
        "per_node_throughput_mbps": size_mb / completion if completion > 0 else 0.0,
    }


@scenario(
    "distribution",
    title="One BitDew-driven file distribution (any protocol)",
    paper_ref="Figure 3 building block (§4.3)",
    tags=("transfer",),
    sizes={"reduced": {"protocol": "bittorrent", "size_mb": 5.0,
                       "n_nodes": 6, "use_scheduler": True}})
def run_distribution(
    protocol: str,
    size_mb: float,
    n_nodes: int,
    monitor_period_s: float = 0.5,
    sync_period_s: float = 1.0,
    use_scheduler: bool = False,
    bittorrent_mode: str = "auto",
    server_link_mbps: float = 125.0,
    node_link_mbps: float = 125.0,
    seed: int = 0,
) -> Dict[str, float]:
    """Distribute one file to *n_nodes* through the full BitDew runtime.

    With ``use_scheduler=False`` (the default, matching the §4.3 measurement)
    every node issues the transfer immediately through the DC/DR/DT protocol;
    with ``use_scheduler=True`` the file is scheduled with ``replica = -1``
    and nodes discover it through their periodic synchronisation, which adds
    the pull-model latency on top.
    """
    if size_mb <= 0 or n_nodes <= 0:
        raise ValueError("size_mb and n_nodes must be positive")
    env = Environment()
    topo = cluster_topology(env, n_workers=n_nodes,
                            server_link_mbps=server_link_mbps,
                            node_link_mbps=node_link_mbps)
    from repro.transfer.registry import default_registry
    registry = default_registry(env, topo.network, bittorrent_mode=bittorrent_mode)
    runtime = BitDewEnvironment(
        topo, registry=registry,
        sync_period_s=sync_period_s, monitor_period_s=monitor_period_s,
        seed=seed,
    )
    master = runtime.attach(topo.service_host, auto_sync=False)
    content = FileContent.from_seed("payload.bin", size_mb)

    setup_done = {}

    def master_program():
        data = yield from master.bitdew.create_data("payload.bin", content=content)
        yield from master.bitdew.put(data, content, protocol=protocol)
        attribute = Attribute(name="payload", replica=-1, protocol=protocol)
        if use_scheduler:
            yield from master.active_data.schedule(data, attribute)
        setup_done["data"] = data
        setup_done["attribute"] = attribute
        setup_done["time"] = env.now
        return data

    setup_proc = env.process(master_program())
    env.run(until=setup_proc)
    data = setup_done["data"]
    attribute = setup_done["attribute"]
    start_time = setup_done["time"]

    agents = runtime.attach_all(auto_sync=use_scheduler)
    fetch_events = []
    if not use_scheduler:
        for agent in agents:
            agent.set_attribute(data, attribute)
            fetch_events.append(env.process(
                agent.fetch(data, protocol=protocol, attribute=attribute)))
        env.run(until=env.all_of(fetch_events))
    else:
        deadline = start_time + max(3600.0, 100.0 * size_mb)
        while env.now < deadline:
            if all(agent.has_content(data.uid) for agent in agents):
                break
            env.run(until=env.now + sync_period_s)

    completions = []
    for agent in agents:
        stats = agent.stats.get(data.uid)
        if stats is not None and stats.download_completed_at is not None:
            completions.append(stats.download_completed_at)
    if not completions:
        raise RuntimeError("no node completed the distribution")
    completion = max(completions) - start_time

    dt = runtime.data_transfer
    return {
        "protocol": protocol,
        "size_mb": float(size_mb),
        "n_nodes": float(n_nodes),
        "completion_s": completion,
        "completed_nodes": float(len(completions)),
        "monitor_messages": float(dt.monitor_messages),
        "retries": float(dt.retries),
    }


@scenario(
    "fig3a",
    title="Distribution completion-time grid, FTP vs BitTorrent",
    paper_ref="Figure 3a (§4.3)",
    tags=("transfer",),
    sizes={"reduced": {"sizes_mb": [10], "node_counts": [10]},
           "quick": {},     # the defaults: one cell is too few for the shapes
           # §4.3: 10 to 500 MB to 10 to 250 nodes.
           "paper": {"sizes_mb": [10, 20, 50, 100, 150, 200, 250, 500],
                     "node_counts": [10, 20, 50, 100, 150, 200, 250]}})
def run_fig3a(
    sizes_mb: Sequence[float] = (10, 100, 500),
    node_counts: Sequence[int] = (10, 50, 150),
    protocols: Sequence[str] = ("ftp", "bittorrent"),
    **kwargs,
) -> List[Dict[str, float]]:
    """Completion time of BitDew-driven distribution, FTP vs BitTorrent."""
    rows = []
    for protocol in protocols:
        for size in sizes_mb:
            for nodes in node_counts:
                result = run_distribution.scenario_impl(
                    protocol, size, nodes, **kwargs)
                rows.append(result)
    return rows


@scenario(
    "fig3bc",
    title="BitDew+FTP vs FTP-alone overhead (percent and seconds)",
    paper_ref="Figures 3b-3c (§4.3)",
    tags=("transfer",),
    sizes={"reduced": {"sizes_mb": [10], "node_counts": [10]},
           "quick": {},     # the defaults: one cell is too few for the shapes
           # §4.3: 10 to 500 MB to 10 to 250 nodes.
           "paper": {"sizes_mb": [10, 20, 50, 100, 150, 200, 250, 500],
                     "node_counts": [10, 20, 50, 100, 150, 200, 250]}})
def run_fig3bc(
    sizes_mb: Sequence[float] = (10, 100, 500),
    node_counts: Sequence[int] = (10, 50, 150),
    **kwargs,
) -> List[Dict[str, float]]:
    """BitDew+FTP vs FTP alone: overhead in percent (3b) and seconds (3c)."""
    rows = []
    for size in sizes_mb:
        for nodes in node_counts:
            baseline = run_ftp_alone.scenario_impl(size, nodes)
            bitdew = run_distribution.scenario_impl(
                "ftp", size, nodes, **kwargs)
            overhead_s = bitdew["completion_s"] - baseline["completion_s"]
            overhead_pct = (100.0 * overhead_s / baseline["completion_s"]
                            if baseline["completion_s"] > 0 else float("inf"))
            rows.append({
                "size_mb": float(size),
                "n_nodes": float(nodes),
                "ftp_alone_s": baseline["completion_s"],
                "bitdew_ftp_s": bitdew["completion_s"],
                "overhead_s": overhead_s,
                "overhead_pct": overhead_pct,
            })
    return rows
