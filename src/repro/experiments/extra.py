"""Beyond-the-paper scenarios: new workloads on the reproduced runtime.

The paper's evaluation stops at scripted one-crash-per-interval churn and
steady publication load.  These scenarios push the same mechanisms into
regimes the paper motivates but never measures:

* :func:`run_flash_crowd` — a flash crowd of late joiners hitting an already
  seeded distribution (the desktop-grid registration storm of §2.2); under
  BitTorrent the crowd feeds itself, under FTP it queues on the server
  uplink.
* :func:`run_fig4_weibull` — the Figure 4 replicated-storage setup driven by
  stochastic heavy-tailed (Weibull) availability traces instead of the
  scripted crash-one-start-one sequence, measuring how well ``replica = r,
  fault tolerance = true`` holds the replica set under realistic
  desktop-grid volatility.
* :func:`run_catalog_load` — Table 3's DDC-vs-centralized-catalog comparison
  under a mixed publish + search load (§3.4.1), reporting throughput and
  slowdown for both operations instead of publish alone.
* :func:`run_mapreduce_churn` — the MapReduce word count (the paper's
  future-work abstraction) with mapper hosts crashing mid-job, measuring how
  much of the output survives attribute-driven re-placement.

Each function is a registered scenario (see
:mod:`repro.experiments.scenarios`) and follows the harness conventions of
:mod:`repro.bench`: build a fresh platform, run, return a plain dict.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.attributes import Attribute
from repro.core.runtime import BitDewEnvironment
from repro.experiments.registry import scenario
from repro.net.rpc import ChannelKind, RpcChannel, RpcEndpoint
from repro.net.topology import cluster_topology, dsl_lab_topology
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.storage.database import ConnectionPool, Database
from repro.storage.filesystem import FileContent
from repro.storage.persistence import new_auid
from repro.workloads.traces import ChurnEvent, ChurnScript, availability_trace

__all__ = [
    "run_catalog_load",
    "run_fig4_weibull",
    "run_flash_crowd",
    "run_mapreduce_churn",
]


@scenario(
    "flash-crowd",
    title="A flash crowd of late joiners hits a seeded distribution",
    paper_ref="beyond the paper (motivated by §2.2)",
    group="extra", tags=("transfer", "churn"))
def run_flash_crowd(
    size_mb: float = 10.0,
    n_initial: int = 5,
    n_crowd: int = 25,
    protocol: str = "bittorrent",
    join_window_s: float = 10.0,
    sync_period_s: float = 2.0,
    monitor_period_s: float = 1.0,
    bittorrent_mode: str = "auto",
    node_link_mbps: float = 125.0,
    server_link_mbps: float = 125.0,
    deadline_s: float = 20_000.0,
    seed: int = 3,
) -> Dict[str, object]:
    """A flash crowd joins an already-seeded distribution.

    ``n_initial`` nodes download a datum scheduled with ``replica = -1``;
    once they all hold it, ``n_crowd`` fresh nodes join within
    ``join_window_s`` seconds and pull the same datum.  Measures each crowd
    member's join→completion latency: under FTP the crowd serialises on the
    server uplink, under BitTorrent the seeded nodes turn the crowd into
    extra capacity.
    """
    if n_initial <= 0 or n_crowd <= 0:
        raise ValueError("n_initial and n_crowd must be positive")
    if join_window_s < 0:
        raise ValueError("join_window_s must be non-negative")
    env = Environment()
    rng = RandomStreams(seed)
    topo = cluster_topology(env, n_workers=n_initial + n_crowd,
                            node_link_mbps=node_link_mbps,
                            server_link_mbps=server_link_mbps)
    from repro.transfer.registry import default_registry
    registry = default_registry(env, topo.network,
                                bittorrent_mode=bittorrent_mode)
    runtime = BitDewEnvironment(
        topo, registry=registry,
        sync_period_s=sync_period_s, monitor_period_s=monitor_period_s,
        seed=seed,
    )
    master = runtime.attach(topo.service_host, auto_sync=False)
    initial_hosts = topo.worker_hosts[:n_initial]
    crowd_hosts = topo.worker_hosts[n_initial:]

    content = FileContent.from_seed("flashcrowd.dat", size_mb)
    published = {}

    def master_program():
        data = yield from master.bitdew.create_data("flashcrowd.dat",
                                                    content=content)
        yield from master.bitdew.put(data, content, protocol=protocol)
        attribute = Attribute(name="flashcrowd", replica=-1, protocol=protocol)
        yield from master.active_data.schedule(data, attribute)
        published["data"] = data
        return data

    setup = env.process(master_program())
    env.run(until=setup)
    data = published["data"]

    initial_agents = runtime.attach_all(initial_hosts)
    while env.now < deadline_s and not all(
            agent.has_content(data.uid) for agent in initial_agents):
        env.run(until=env.now + sync_period_s)
    seeded_at = env.now

    # The crowd: every member joins at an independent instant in the window.
    events = [
        ChurnEvent(time_s=seeded_at + rng.uniform(f"join-{host.name}",
                                                  0.0, join_window_s),
                   host_name=host.name, action="join")
        for host in crowd_hosts
    ]
    script = ChurnScript(runtime, events)
    script.start()

    def crowd_done() -> bool:
        return all(
            host.name in runtime.agents
            and runtime.agents[host.name].has_content(data.uid)
            for host in crowd_hosts)

    while env.now < deadline_s and not crowd_done():
        env.run(until=env.now + sync_period_s)

    rows: List[Dict[str, object]] = []
    for host in crowd_hosts:
        agent = runtime.agents.get(host.name)
        stats = agent.stats.get(data.uid) if agent is not None else None
        completed = stats.download_completed_at if stats is not None else None
        rows.append({
            "host": host.name,
            "joined_at": agent.attached_at if agent is not None else None,
            "completed_at": completed,
            "latency_s": (completed - agent.attached_at
                          if completed is not None else None),
        })
    latencies = [r["latency_s"] for r in rows if r["latency_s"] is not None]
    completed_at = [r["completed_at"] for r in rows
                    if r["completed_at"] is not None]
    return {
        "scenario": "flash-crowd",
        "protocol": protocol,
        "size_mb": float(size_mb),
        "n_initial": n_initial,
        "n_crowd": n_crowd,
        "seeded_at_s": seeded_at,
        "rows": rows,
        "crowd_completed": len(latencies),
        "crowd_completion_s": (max(completed_at) - seeded_at
                               if completed_at else None),
        "mean_latency_s": (sum(latencies) / len(latencies)
                           if latencies else None),
        "max_latency_s": max(latencies) if latencies else None,
    }


@scenario(
    "fig4-weibull",
    title="Figure 4's replicated storage under Weibull churn traces",
    paper_ref="beyond the paper (Figure 4 setup, §4.4)",
    group="extra", tags=("churn",))
def run_fig4_weibull(
    size_mb: float = 5.0,
    replica: int = 5,
    n_workers: int = 12,
    mean_availability_s: float = 150.0,
    mean_unavailability_s: float = 60.0,
    weibull_shape: float = 0.7,
    settle_s: float = 60.0,
    horizon_s: float = 400.0,
    sample_period_s: float = 5.0,
    heartbeat_period_s: float = 1.0,
    timeout_multiplier: float = 3.0,
    sync_period_s: float = 1.0,
    seed: int = 42,
) -> Dict[str, object]:
    """Figure 4's replicated storage under heavy-tailed (Weibull) churn.

    Same platform and attribute as Figure 4 (DSL-Lab, ``replica = r, fault
    tolerance = true, protocol = ftp``) but the hosts follow stochastic
    ON/OFF availability sessions with Weibull-distributed lengths — the
    shape measured on real desktop grids — instead of the paper's scripted
    crash-one-start-one sequence.  Samples the live replica count over time
    and reports how well the runtime holds the replication target.
    """
    if n_workers > 12:
        raise ValueError("DSL-Lab has 12 nodes")
    if sample_period_s <= 0:
        raise ValueError("sample_period_s must be positive")
    if horizon_s <= settle_s:
        raise ValueError(
            f"horizon_s ({horizon_s:g}) must exceed settle_s ({settle_s:g}): "
            f"churn starts only after the replicas settle")
    env = Environment()
    rng = RandomStreams(seed)
    topo = dsl_lab_topology(env, n_workers=n_workers, rng=rng)
    runtime = BitDewEnvironment(
        topo,
        sync_period_s=sync_period_s,
        heartbeat_period_s=heartbeat_period_s,
        timeout_multiplier=timeout_multiplier,
        monitor_period_s=0.5,
        seed=seed,
    )
    master = runtime.attach(topo.service_host, auto_sync=False)
    content = FileContent.from_seed("replicated.dat", size_mb)
    attribute = Attribute(name="replicated", replica=replica,
                          fault_tolerance=True, protocol="ftp")
    published = {}

    def master_program():
        data = yield from master.bitdew.create_data("replicated.dat",
                                                    content=content)
        yield from master.bitdew.put(data, content, protocol="ftp")
        yield from master.active_data.schedule(data, attribute)
        published["data"] = data
        return data

    setup = env.process(master_program())
    env.run(until=setup)
    data = published["data"]

    runtime.attach_all()
    env.run(until=env.now + settle_s)

    trace = availability_trace(
        [h.name for h in topo.worker_hosts],
        horizon_s=horizon_s - settle_s,
        mean_availability_s=mean_availability_s,
        mean_unavailability_s=mean_unavailability_s,
        distribution="weibull",
        weibull_shape=weibull_shape,
        rng=rng.spawn("churn"),
    )
    shifted = [ChurnEvent(time_s=e.time_s + settle_s, host_name=e.host_name,
                          action=e.action) for e in trace]
    script = ChurnScript(runtime, shifted)
    script.start()

    def live_replicas() -> int:
        owners = runtime.data_scheduler.owners_of(data.uid)
        return len([name for name in owners
                    if name in runtime.agents
                    and runtime.agents[name].host.online
                    and runtime.agents[name].has_content(data.uid)])

    samples: List[Dict[str, float]] = []
    while env.now < horizon_s:
        env.run(until=min(horizon_s, env.now + sample_period_s))
        samples.append({"time_s": env.now, "live_replicas": live_replicas()})

    counts = [s["live_replicas"] for s in samples]
    target = min(replica, n_workers)
    return {
        "scenario": "fig4-weibull",
        "replica": replica,
        "n_workers": n_workers,
        "horizon_s": horizon_s,
        "samples": samples,
        "crashes": len([e for e in script.applied if e.action == "crash"]),
        "joins": len([e for e in script.applied if e.action == "join"]),
        "min_live_replicas": min(counts) if counts else 0,
        "mean_live_replicas": (sum(counts) / len(counts)) if counts else 0.0,
        "fraction_at_target": (sum(1 for c in counts if c >= target)
                               / len(counts)) if counts else 0.0,
        "final_live_replicas": counts[-1] if counts else 0,
        "assignments": runtime.data_scheduler.assignments,
    }


@scenario(
    "catalog-load",
    title="DDC vs centralized catalog under mixed publish+search load",
    paper_ref="beyond the paper (Table 3 setup, §3.4.1)",
    group="extra", tags=("micro", "dht"))
def run_catalog_load(
    n_nodes: int = 20,
    pairs_per_node: int = 100,
    searches_per_node: int = 50,
    engine: str = "hsqldb",
    seed: int = 5,
) -> Dict[str, object]:
    """DDC vs centralized Data Catalog under mixed publish + search load.

    Table 3 measures publication alone; here every node interleaves
    ``pairs_per_node`` publishes with ``searches_per_node`` searches of keys
    already published (its own or another node's, chosen under the seed),
    against both catalog implementations: the Chord-based DDC (§3.4.1) and
    the centralized Data Catalog behind RMI.  Reports total time and
    per-operation throughput for each, plus the DDC slowdown.
    """
    if n_nodes <= 0 or pairs_per_node <= 0:
        raise ValueError("n_nodes and pairs_per_node must be positive")
    if searches_per_node < 0:
        raise ValueError("searches_per_node must be non-negative")
    from repro.bench.micro import _ENGINES as engines
    if engine not in engines:
        raise ValueError(
            f"unknown engine {engine!r}; expected {sorted(engines)}")
    rng = RandomStreams(seed)
    node_names = [f"cat-node{i:03d}" for i in range(n_nodes)]
    ops_per_node = pairs_per_node + searches_per_node

    # Deterministic interleave, shared by every node in both phases:
    # Bresenham-style merge of exactly pairs_per_node publishes and
    # searches_per_node searches, spread proportionally, publish first.
    plan: List[str] = []
    publishes = searches = 0
    while publishes < pairs_per_node or searches < searches_per_node:
        if publishes < pairs_per_node and (
                searches >= searches_per_node
                or publishes * searches_per_node <= searches * pairs_per_node):
            plan.append("publish")
            publishes += 1
        else:
            plan.append("search")
            searches += 1

    def search_key(name: str, done: List[str], index: int) -> str:
        pick = rng.choice(f"search-{name}-{index}", len(done))
        return done[pick]

    # ---------------- DDC (DHT) ----------------
    from repro.dht.chord import ChordRing
    from repro.dht.ddc import DistributedDataCatalog
    env = Environment()
    ddc = DistributedDataCatalog(env, ChordRing(replication=2))
    for name in node_names:
        ddc.join(name)
    published_keys: List[str] = []

    def ddc_client(name: str):
        index = 0
        for op in plan:
            if op == "publish":
                key = new_auid(f"{name}-{index}")
                yield from ddc.publish(key, name, origin=name)
                published_keys.append(key)
            else:
                yield from ddc.search(
                    search_key(name, published_keys, index), origin=name)
            index += 1

    processes = [env.process(ddc_client(name)) for name in node_names]
    env.run(until=env.all_of(processes))
    ddc_total_s = env.now

    # ---------------- DC (centralized, RMI remote) ----------------
    env2 = Environment()
    engine_profile = engines[engine]()
    from repro.services.data_catalog import DataCatalogService
    database = Database(env2, engine=engine_profile,
                        pool=ConnectionPool(env2, engine_profile))
    catalog = DataCatalogService(database)
    endpoint = RpcEndpoint(catalog, name="DataCatalog")
    dc_published: List[str] = []

    def dc_client(name: str):
        rpc = RpcChannel(env2, ChannelKind.RMI_REMOTE)
        index = 0
        for op in plan:
            if op == "publish":
                key = new_auid(f"{name}-{index}")
                yield from rpc.invoke(endpoint, "publish_pair", key, name)
                dc_published.append(key)
            else:
                yield from rpc.invoke(
                    endpoint, "lookup_pair",
                    search_key(name, dc_published, index))
            index += 1

    processes2 = [env2.process(dc_client(name)) for name in node_names]
    env2.run(until=env2.all_of(processes2))
    dc_total_s = env2.now

    total_ops = n_nodes * ops_per_node
    return {
        "scenario": "catalog-load",
        "n_nodes": float(n_nodes),
        "pairs_per_node": float(pairs_per_node),
        "searches_per_node": float(searches_per_node),
        "total_ops": float(total_ops),
        "ddc_total_s": ddc_total_s,
        "dc_total_s": dc_total_s,
        "ddc_ops_per_s": total_ops / ddc_total_s if ddc_total_s > 0 else float("inf"),
        "dc_ops_per_s": total_ops / dc_total_s if dc_total_s > 0 else float("inf"),
        "ddc_publishes": float(ddc.publish_count),
        "ddc_searches": float(ddc.search_count),
        "ddc_mean_hops": (ddc.total_hops
                          / max(1, ddc.publish_count + ddc.search_count)),
        "slowdown_ratio": ddc_total_s / dc_total_s if dc_total_s > 0 else float("inf"),
    }


@scenario(
    "mapreduce-churn",
    title="MapReduce word count with mapper crashes mid-job",
    paper_ref="beyond the paper (conclusion / future work)",
    group="extra", tags=("apps", "churn"))
def run_mapreduce_churn(
    n_workers: int = 8,
    n_map_slices: int = 6,
    n_reducers: int = 2,
    corpus_repeats: int = 30,
    crash_mappers: int = 2,
    crash_at_s: float = 1.0,
    map_cost_s_per_mb: float = 500.0,
    straggler_grace_s: float = 10.0,
    sync_period_s: float = 1.0,
    deadline_s: float = 300.0,
    seed: int = 9,
) -> Dict[str, object]:
    """MapReduce word count with mapper hosts crashing mid-job.

    Runs the paper's future-work MapReduce abstraction (word count over a
    deterministic corpus) on a cluster, then crashes ``crash_mappers``
    mapper hosts at ``crash_at_s`` — early enough that their input slices
    are still in flight, so their map tasks never run.  Intermediate data
    that reached the stable repository survives (the shuffle is plain data
    placement); the reducers stop waiting for the dead mappers after
    ``straggler_grace_s`` seconds of stalled map progress and reduce what
    arrived.  Reports how much of the expected word count the job still
    produced and how long it took.
    """
    if n_workers < 3:
        raise ValueError("need at least 3 workers (mappers + reducers)")
    if crash_mappers < 0:
        raise ValueError("crash_mappers must be non-negative")
    from repro.apps.mapreduce import MapReduceJob
    corpus = (
        "bitdew schedules data to hosts through replica affinity lifetime "
        "fault tolerance and protocol attributes the computation follows "
        "the data under churn the attributes keep the data alive "
    ) * corpus_repeats
    payload = corpus.encode("utf-8")
    expected_words = len(corpus.split())

    env = Environment()
    topo = cluster_topology(env, n_workers=n_workers)
    runtime = BitDewEnvironment(topo, sync_period_s=sync_period_s,
                                monitor_period_s=0.2, max_data_schedule=8,
                                seed=seed)
    job = MapReduceJob(runtime, master_host=topo.service_host,
                       input_payload=payload,
                       n_map_slices=n_map_slices, n_reducers=n_reducers,
                       map_cost_s_per_mb=map_cost_s_per_mb,
                       straggler_grace_s=straggler_grace_s)
    job.assign_workers()

    victims = [agent.host.name for agent in job.mappers[:crash_mappers]]
    if victims:
        script = ChurnScript(runtime, [
            ChurnEvent(time_s=crash_at_s, host_name=name, action="crash")
            for name in victims
        ])
        script.start()

    result = job.run(deadline_s=deadline_s, poll_s=2.0)
    produced_words = sum(result.output.values())
    return {
        "scenario": "mapreduce-churn",
        "n_workers": n_workers,
        "n_map_slices": n_map_slices,
        "n_reducers": n_reducers,
        "crash_mappers": crash_mappers,
        "crashed_hosts": victims,
        "crash_at_s": crash_at_s,
        "map_tasks": result.map_tasks,
        "map_failures": result.map_failures,
        "reduce_tasks": result.reduce_tasks,
        "intermediate_data": result.intermediate_data,
        "makespan_s": result.makespan_s,
        "expected_words": expected_words,
        "produced_words": produced_words,
        "output_fraction": (produced_words / expected_words
                            if expected_words else 0.0),
        "distinct_words": len(result.output),
    }
