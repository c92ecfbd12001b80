"""Service-fabric benchmarks: sharded throughput and failover recovery.

The paper's deployment keeps all four D* services on one stable host; the
service fabric (:mod:`repro.services.fabric`) shards the Data Catalog and
Data Scheduler over N hosts.  These harnesses measure what that buys:

* :func:`run_fabric_scale` — the same flash-crowd sync storm (every host
  synchronising at the same instant, every datum downloaded through the
  DC/DR/DT protocol stack) served once by the centralized container and
  once by an S-shard fabric.  The centralized database serialises
  statements — the Table 2 bottleneck — so the sharded deployment's
  makespan shrinks roughly with the shard count; the reported
  ``throughput_x`` is the centralized/sharded makespan ratio.

* :func:`run_fabric_failover` — volatile hosts synchronising on a period
  while a service host crashes mid-run.  Shards whose primary replica
  lived on the crashed host keep failing until the fabric's heartbeat
  detector declares the host dead, then reroute to a live replica; the
  harness measures the client-visible gap (``recovery_s``), the detector's
  detection delay, rerouted/lost request counts, and (optionally) the
  route-back after the host recovers.

Both scenarios are pure simulation — no wall-clock keys — so their
``run --out`` JSON is byte-identical across invocations (the CI fabric
smoke job asserts exactly that).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.core.runtime import BitDewEnvironment
from repro.experiments.registry import scenario
from repro.net.rpc import RpcError
from repro.net.topology import cluster_topology
from repro.sim.kernel import Environment
from repro.storage.database import EmbeddedSQLEngine, NetworkedSQLEngine
from repro.storage.filesystem import FileContent

__all__ = ["run_fabric_failover", "run_fabric_scale"]


def _storm_once(
    shards: int,
    service_hosts: int,
    n_hosts: int,
    n_data: int,
    rounds: int,
    pairs_per_round: int,
    engine_name: str,
    seed: int,
) -> Dict[str, object]:
    """One flash-crowd service storm through a given deployment.

    Every round, all ``n_hosts`` hosts hit the services at the same
    simulated instant: one Data Scheduler synchronisation (Algorithm 1
    over a Θ of ``n_data`` pinned entries) plus ``pairs_per_round`` catalog
    publishes and the matching look-ups — the Table 3 / catalog-load mixed
    workload generated by a flash crowd.  No bulk transfers: the service
    layer's database(s) are the only bottleneck, which is exactly what the
    centralized-vs-sharded comparison measures.
    """
    env = Environment()
    topo = cluster_topology(env, n_workers=n_hosts,
                            n_service_hosts=service_hosts,
                            server_link_mbps=1000.0, node_link_mbps=1000.0)
    engine = (NetworkedSQLEngine() if engine_name == "mysql"
              else EmbeddedSQLEngine())
    runtime = BitDewEnvironment(
        topo,
        engine=engine,
        shards=shards,
        service_hosts=service_hosts,
        sync_period_s=3600.0,          # the storm is driven explicitly
        heartbeat_period_s=3600.0,
        seed=seed,
    )
    scheduler = runtime.data_scheduler
    catalog = runtime.data_catalog
    agents = runtime.attach_all(auto_sync=False)

    # A realistic steady-state Θ: every datum pinned on a host (owners
    # satisfied, so the storm exercises the sync path without transfers).
    attribute = Attribute(name="fabric", replica=1, protocol="http")
    for i in range(n_data):
        content = FileContent.from_seed(f"fabric-{i:05d}", 0.001)
        data = Data.from_content(content)
        scheduler.pin(data, agents[i % len(agents)].host.name, attribute)

    def host_round(agent, round_index: int):
        yield from agent.sync_once()
        for k in range(pairs_per_round):
            key = f"pair-{agent.host.name}-{round_index}-{k}"
            yield from agent.invoke("dc", "publish_pair", key,
                                    agent.host.name)
            yield from agent.invoke("dc", "lookup_pair", key)

    storm_start = env.now
    for round_index in range(rounds):
        done = env.all_of([env.process(host_round(agent, round_index))
                           for agent in agents])
        env.run(until=done)
    makespan = env.now - storm_start

    # Client-level request count — identical across deployments by
    # construction (the sharded facade's sync_count is S per client sync,
    # so it is reported separately as shard_sync_count, not mixed into the
    # cross-deployment throughput figure).
    client_syncs = len(agents) * rounds
    serviced = client_syncs + catalog.requests
    return {
        "shards": shards,
        "service_hosts": service_hosts,
        "makespan_s": makespan,
        "client_syncs": client_syncs,
        "shard_sync_count": scheduler.sync_count,
        "catalog_requests": catalog.requests,
        "serviced_requests": serviced,
        "throughput_rps": serviced / makespan if makespan > 0 else 0.0,
        "entries_examined": scheduler.entries_examined,
        "managed_count": scheduler.managed_count,
    }


@scenario(
    "fabric-scale",
    title="Flash-crowd sync storm: centralized container vs sharded fabric",
    paper_ref="beyond the paper (distributed services, §3.4; BENCH trajectory)",
    group="scale", tags=("bench", "fabric"),
    sizes={"reduced": {"n_hosts": 30, "n_data": 200, "rounds": 2,
                       "pairs_per_round": 8}})
def run_fabric_scale(
    n_hosts: int = 100,
    n_data: int = 1000,
    shards: int = 4,
    rounds: int = 3,
    pairs_per_round: int = 16,
    engine: str = "mysql",
    seed: int = 11,
) -> Dict[str, object]:
    """Centralized container vs S-shard fabric on one flash-crowd storm.

    Identical workload both times (see :func:`_storm_once`).  The
    centralized database serialises every catalog operation and scheduler
    synchronisation (the Table 2 regime, here with the paper's MySQL-like
    engine); the fabric spreads them over one database per shard.  Keyed
    catalog traffic shards by data uid/key; a synchronisation scatters over
    every scheduler shard (any shard may hold data for the host), so the
    catalog-heavy storm is where sharding pays — ``throughput_x`` is the
    centralized/sharded makespan ratio on the identical request stream.
    """
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be at least 1, got {n_hosts!r}")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    centralized = _storm_once(
        shards=1, service_hosts=1, n_hosts=n_hosts, n_data=n_data,
        rounds=rounds, pairs_per_round=pairs_per_round,
        engine_name=engine, seed=seed)
    sharded = _storm_once(
        shards=shards, service_hosts=shards, n_hosts=n_hosts, n_data=n_data,
        rounds=rounds, pairs_per_round=pairs_per_round,
        engine_name=engine, seed=seed)
    throughput_x = (
        centralized["makespan_s"] / sharded["makespan_s"]
        if sharded["makespan_s"] > 0 else 0.0)
    return {
        "scenario": "fabric-scale",
        "n_hosts": n_hosts,
        "n_data": n_data,
        "rounds": rounds,
        "pairs_per_round": pairs_per_round,
        "engine": engine,
        "shards": shards,
        "centralized": centralized,
        "sharded": sharded,
        "throughput_x": throughput_x,
    }


@scenario(
    "fabric-failover",
    title="Service-host crash: heartbeat-driven shard failover and recovery",
    paper_ref="beyond the paper (service architecture, §3.1/§3.4)",
    group="scale", tags=("bench", "fabric", "churn"))
def run_fabric_failover(
    n_hosts: int = 16,
    n_data: int = 64,
    shards: int = 2,
    service_hosts: int = 2,
    replicas: int = 2,
    size_mb: float = 0.02,
    sync_period_s: float = 1.0,
    crash_at: float = 10.4,
    recover_at: Optional[float] = 22.4,
    run_for_s: float = 32.0,
    host_heartbeat_period_s: float = 1.0,
    host_timeout_multiplier: float = 3.0,
    host_sweep_period_s: float = 0.25,
    seed: int = 5,
) -> Dict[str, object]:
    """Service-host crash under periodic synchronisation: failover + recovery.

    All data is placed first; then every volatile host synchronises each
    ``sync_period_s`` while the *primary* service host crashes at
    ``crash_at``.  Requests to shards whose live replica list starts on the
    dead host retry under the failover policy until the fabric's host
    detector declares the crash, then reroute to a replica — the measured
    ``recovery_s`` (last client gap) must stay within one heartbeat
    timeout.  If ``recover_at`` is set the host comes back, its heartbeats
    resume and routing returns to the primary.
    """
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be at least 1, got {n_hosts!r}")
    if service_hosts < 2 or replicas < 2:
        raise ValueError("failover needs at least 2 service hosts and "
                         "2 replicas per shard")
    env = Environment()
    topo = cluster_topology(env, n_workers=n_hosts,
                            n_service_hosts=service_hosts,
                            server_link_mbps=1000.0, node_link_mbps=1000.0)
    runtime = BitDewEnvironment(
        topo,
        shards=shards,
        service_hosts=service_hosts,
        service_replicas=replicas,
        sync_period_s=sync_period_s,
        heartbeat_period_s=1.0,
        # The fabric raises the volatile-host timeout to cover the failover
        # blackout by construction, so no per-scenario override is needed.
        host_heartbeat_period_s=host_heartbeat_period_s,
        host_timeout_multiplier=host_timeout_multiplier,
        host_sweep_period_s=host_sweep_period_s,
        max_data_schedule=16,
        seed=seed,
    )
    fabric = runtime.fabric
    primary = fabric.hosts[0]
    scheduler = runtime.data_scheduler
    repository = runtime.container.data_repository
    catalog = runtime.container.data_catalog

    attribute = Attribute(name="failover", replica=1, protocol="http")
    for i in range(n_data):
        content = FileContent.from_seed(f"failover-{i:05d}", size_mb)
        data = Data.from_content(content)
        locator = repository.store_now(data, content)
        catalog.add_locator_now(locator)
        scheduler.schedule(data, attribute)

    agents = runtime.attach_all(auto_sync=False)
    for _round in range(2):
        done = runtime.kick_sync()
        env.run(until=done)
    placed_before_crash = sum(
        1 for agent in agents for uid in agent.cached_uids()
        if agent.has_content(uid))

    #: (host_name, time, ok) per attempted synchronisation
    events: List[tuple] = []
    #: detection times per service host (declared_dead_at is cleared when a
    #: recovered host's heartbeats resume, so record it from the callback)
    detection: Dict[str, float] = {}
    fabric.host_detector.on_failure(
        lambda name: detection.setdefault(name, env.now))
    t_start = env.now

    def client_loop(agent):
        while env.now - t_start < run_for_s:
            try:
                yield from agent.sync_once()
                events.append((agent.host.name, env.now, True))
            except RpcError:
                events.append((agent.host.name, env.now, False))
            yield env.timeout(sync_period_s)

    def crash_script():
        yield env.timeout(crash_at)
        runtime.crash_service_host(primary)
        if recover_at is not None:
            yield env.timeout(recover_at - crash_at)
            runtime.recover_service_host(primary)

    for agent in agents:
        env.process(client_loop(agent))
    env.process(crash_script())
    horizon = env.timeout(run_for_s + 4 * sync_period_s)
    env.run(until=horizon)

    crash_time = t_start + crash_at
    # Per-host recovery: gap between the crash and the first successful
    # synchronisation after it.
    first_ok_after: Dict[str, float] = {}
    failed_syncs = 0
    for host_name, at, ok in events:
        if not ok:
            failed_syncs += 1
        elif at > crash_time and host_name not in first_ok_after:
            first_ok_after[host_name] = at
    recovery_s = (max(first_ok_after.values()) - crash_time
                  if len(first_ok_after) == len(agents) else None)
    detected_dead_at = detection.get(primary.name)
    detect_s = (detected_dead_at - crash_time
                if detected_dead_at is not None else None)

    lost_requests = sum(agent.channel.lost_requests for agent in agents)
    failover_attempts = sum(agent.channel.failover_attempts for agent in agents)
    total_syncs = len(events)
    ok_syncs = sum(1 for _h, _t, ok in events if ok)
    return {
        "scenario": "fabric-failover",
        "n_hosts": n_hosts,
        "n_data": n_data,
        "shards": shards,
        "service_hosts": service_hosts,
        "replicas": replicas,
        "crash_at_s": crash_at,
        "recover_at_s": recover_at,
        "placed_before_crash": placed_before_crash,
        "host_timeout_s": fabric.host_detector.timeout_s,
        "recovery_s": recovery_s,
        "detect_s": detect_s,
        "detected_dead_at": detected_dead_at,
        "total_syncs": total_syncs,
        "ok_syncs": ok_syncs,
        "failed_syncs": failed_syncs,
        "lost_requests": lost_requests,
        "failover_attempts": failover_attempts,
        "reroutes": runtime.router.reroutes,
        "reroutes_by_shard": dict(sorted(
            runtime.router.reroutes_by_shard.items())),
        "hosts_recovered": len(first_ok_after),
    }
