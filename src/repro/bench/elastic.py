"""Elastic-fabric benchmarks: live rebalancing and SLO-driven autoscaling.

Two scenarios close the loop the fabric PRs opened (sharding in PR 5, live
split/merge in this one):

* :func:`run_fabric_rebalance` — a running fabric absorbs one forced shard
  split and one forced merge while clients keep publishing, looking up and
  synchronising.  Every client request is ledgered; after the run the
  catalog shards are audited raw: **zero lost** (every completed publish is
  readable) and **zero duplicated** (each key lives on exactly one shard,
  each value appears once).  The migration stats judge the ring: keys
  moved must stay within ε of the ``K·1/S±1`` consistent-hashing minimum.

* :func:`run_fabric_autoscale` — the same compressed diurnal trace
  (:func:`repro.workloads.generator.diurnal_arrivals`: overnight trough,
  midday hump above a single shard's database capacity, a flash spike on
  top) replayed twice: once pinned at one shard, once with the
  :class:`~repro.services.autoscaler.SloAutoscaler` splitting and merging
  live against a p99 target.  The figure of merit is the SLO-violation
  integral (seconds above target) with vs without autoscaling.

Both scenarios are pure simulation — no wall-clock keys — so their JSON is
byte-identical across runs and ``--jobs`` values (CI asserts it).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.core.runtime import BitDewEnvironment
from repro.experiments.registry import scenario
from repro.net.rpc import ChannelKind, RpcError
from repro.net.topology import cluster_topology
from repro.services.autoscaler import HotspotMonitor, SloAutoscaler, SloTracker
from repro.services.rebalance import RebalanceCoordinator
from repro.sim.kernel import Environment
from repro.storage.database import NetworkedSQLEngine
from repro.storage.filesystem import FileContent
from repro.workloads.generator import DiurnalProfile, diurnal_arrivals

__all__ = ["run_fabric_autoscale", "run_fabric_rebalance"]


def _audit_catalog_pairs(fabric, completed: Dict[str, str]) -> Dict[str, int]:
    """Raw scan of every catalog shard: are the ledgered pairs all there,
    each on exactly one shard, each value exactly once?"""
    lost = duplicated = misplaced = 0
    for key, value in completed.items():
        holders = []
        copies = 0
        for index, shard in enumerate(fabric.catalog_shards):
            values = shard.lookup_pair_now(key)
            if values:
                holders.append(index)
                copies += sum(1 for v in values if v == value)
        if not holders or copies == 0:
            lost += 1
        elif len(holders) > 1 or copies > 1:
            duplicated += 1
        elif holders[0] != fabric.dc_ring.shard_for(key):
            misplaced += 1
    return {"lost": lost, "duplicated": duplicated, "misplaced": misplaced}


@scenario(
    "fabric-rebalance",
    title="Live shard split+merge under traffic: zero-loss key migration",
    paper_ref="beyond the paper (service architecture, §3.1/§3.4)",
    group="scale", tags=("bench", "fabric"))
def run_fabric_rebalance(
    n_hosts: int = 8,
    n_data: int = 48,
    shards: int = 2,
    service_hosts: int = 3,
    replicas: int = 2,
    ring_vnodes: int = 64,
    op_period_s: float = 0.2,
    sync_every_ops: int = 8,
    split_at: float = 4.0,
    merge_at: float = 10.0,
    run_for_s: float = 16.0,
    seed: int = 7,
) -> Dict[str, object]:
    """One live split and one live merge under sustained client traffic.

    Volatile hosts publish a unique key/value pair every ``op_period_s``
    (immediately reading it back) and synchronise every ``sync_every_ops``
    operations, so both the keyed catalog path and the scatter/sync
    scheduler path cross the migration while it runs.  The coordinator
    forces a split at ``split_at`` and a merge at ``merge_at``; the ledger
    and the post-run raw audit prove no request was lost or duplicated.
    """
    env = Environment()
    topo = cluster_topology(env, n_workers=n_hosts,
                            n_service_hosts=service_hosts,
                            server_link_mbps=1000.0, node_link_mbps=1000.0)
    runtime = BitDewEnvironment(
        topo,
        shards=shards,
        service_hosts=service_hosts,
        service_replicas=replicas,
        ring_vnodes=ring_vnodes,
        sync_period_s=3600.0,          # synchronisation driven by the loops
        heartbeat_period_s=1.0,
        seed=seed,
    )
    fabric = runtime.fabric
    scheduler = runtime.data_scheduler
    catalog = runtime.data_catalog
    repository = runtime.container.data_repository

    attribute = Attribute(name="elastic", replica=1, protocol="http")
    datas = []
    for i in range(n_data):
        content = FileContent.from_seed(f"elastic-{i:05d}", 0.001)
        data = Data.from_content(content)
        catalog.register_data_now(data)
        locator = repository.store_now(data, content)
        catalog.add_locator_now(locator)
        scheduler.schedule(data, attribute)
        datas.append(data)
    agents = runtime.attach_all(auto_sync=False)
    done = runtime.kick_sync()
    env.run(until=done)

    #: the request ledger: key -> value for every publish that completed
    completed: Dict[str, str] = {}
    issued = {"publishes": 0, "syncs": 0, "readback_misses": 0,
              "client_errors": 0}
    t_start = env.now

    def client_loop(agent):
        count = 0
        while env.now - t_start < run_for_s:
            count += 1
            key = f"req-{agent.host.name}-{count:05d}"
            value = agent.host.name
            try:
                issued["publishes"] += 1
                yield from agent.invoke("dc", "publish_pair", key, value)
                completed[key] = value
                values = yield from agent.invoke("dc", "lookup_pair", key)
                if value not in values:
                    issued["readback_misses"] += 1
                if count % sync_every_ops == 0:
                    issued["syncs"] += 1
                    yield from agent.sync_once()
            except RpcError:
                issued["client_errors"] += 1
            yield env.timeout(op_period_s)

    coordinator = RebalanceCoordinator(fabric, runtime.router)
    transitions: List[Dict[str, object]] = []

    def transition_script():
        yield env.timeout(split_at)
        stats = yield from coordinator.split()
        transitions.append(_stats_row(stats))
        yield env.timeout(max(0.0, merge_at - (env.now - t_start)))
        stats = yield from coordinator.merge()
        transitions.append(_stats_row(stats))

    for agent in agents:
        env.process(client_loop(agent))
    env.process(transition_script())
    env.run(until=env.timeout(run_for_s + 4.0))

    audit = _audit_catalog_pairs(fabric, completed)
    # Scheduler-side conservation: every entry on exactly one shard.
    multi_homed = 0
    for data in datas:
        holders = sum(1 for shard in fabric.scheduler_shards
                      if shard.entry(data.uid) is not None)
        if holders != 1:
            multi_homed += 1
    lost_requests = sum(agent.channel.lost_requests for agent in agents)
    return {
        "scenario": "fabric-rebalance",
        "n_hosts": n_hosts,
        "n_data": n_data,
        "shards_before": shards,
        "shards_after": fabric.shards,
        "ring_vnodes": ring_vnodes,
        "split_at_s": split_at,
        "merge_at_s": merge_at,
        "run_for_s": run_for_s,
        "publishes": issued["publishes"],
        "completed_publishes": len(completed),
        "client_syncs": issued["syncs"],
        "client_errors": issued["client_errors"],
        "readback_misses": issued["readback_misses"],
        "lost_requests": lost_requests,
        "lost_pairs": audit["lost"],
        "duplicated_pairs": audit["duplicated"],
        "misplaced_pairs": audit["misplaced"],
        "scheduler_entries": scheduler.managed_count,
        "scheduler_multi_homed": multi_homed,
        "transitions": transitions,
    }


def _stats_row(stats) -> Dict[str, object]:
    return {
        "kind": stats.kind,
        "old_shards": stats.old_shards,
        "new_shards": stats.new_shards,
        "keys_moved": stats.keys_moved,
        "minimum_moves": stats.minimum_moves,
        "move_ratio": stats.move_ratio,
        "keys_recopied": dict(stats.keys_recopied),
        "dirty_rounds": stats.dirty_rounds,
        "sealed_s": stats.sealed_s,
        "duration_s": stats.finished_at - stats.started_at,
    }


def _diurnal_once(
    autoscale: bool,
    profile: DiurnalProfile,
    horizon_s: float,
    n_keys: int,
    service_hosts: int,
    max_shards: int,
    target_p99_s: float,
    ring_vnodes: int,
    operation_cost_s: float,
    seed: int,
) -> Dict[str, object]:
    """Replay the diurnal trace against one deployment; measure the SLO.

    Each arrival is one keyed client request — a catalog publish plus the
    read-back — standing for a bundle of user traffic (the per-statement
    cost is inflated accordingly), hashed over a rotating population of
    ``n_keys`` user buckets.  The fixed deployment keeps one catalog/
    scheduler shard; the autoscaled one starts identically and lets the
    :class:`SloAutoscaler` split toward ``max_shards`` when the windowed
    p99 breaches the target and merge back on the evening ebb.
    """
    env = Environment()
    topo = cluster_topology(env, n_workers=2,
                            n_service_hosts=service_hosts,
                            server_link_mbps=1000.0, node_link_mbps=1000.0)
    runtime = BitDewEnvironment(
        topo,
        engine=NetworkedSQLEngine(operation_cost_s=operation_cost_s),
        shards=1,
        service_hosts=service_hosts,
        service_replicas=1,
        ring_vnodes=ring_vnodes,
        sync_period_s=3600.0,
        heartbeat_period_s=3600.0,
        seed=seed,
    )
    fabric = runtime.fabric
    router = runtime.router
    channel = fabric.channel(ChannelKind.RMI_REMOTE)
    tracker = SloTracker(env, target_p99_s=target_p99_s,
                         window_s=6.0, poll_s=0.5)
    monitor = HotspotMonitor([channel])
    arrivals = diurnal_arrivals(profile, horizon_s)
    completed = {"count": 0, "errors": 0}

    def one_request(index: int):
        key = f"user-{index % n_keys:05d}"
        started = env.now
        try:
            yield from router.invoke(channel, "dc", "publish_pair",
                                     key, f"r{index}")
            yield from router.invoke(channel, "dc", "lookup_pair", key)
        except RpcError:
            completed["errors"] += 1
            return
        tracker.observe(env.now - started)
        completed["count"] += 1

    def arrival_driver():
        previous = 0.0
        for index, at in enumerate(arrivals):
            if at > previous:
                yield env.timeout(at - previous)
                previous = at
            env.process(one_request(index))

    env.process(arrival_driver())
    env.process(tracker.run(for_s=horizon_s + 20.0))
    scaler = None
    if autoscale:
        scaler = SloAutoscaler(
            fabric, router, tracker, monitor=monitor,
            interval_s=1.0, cooldown_s=8.0,
            min_shards=1, max_shards=max_shards)
        env.process(scaler.run(for_s=horizon_s + 10.0))
    env.run(until=env.timeout(horizon_s + 30.0))

    row: Dict[str, object] = {
        "autoscale": autoscale,
        "arrivals": len(arrivals),
        "completed": completed["count"],
        "errors": completed["errors"],
        "violation_seconds": tracker.violation_seconds,
        "worst_p99_ms": tracker.worst_p99_s * 1e3,
        "max_latency_ms": tracker.max_latency_s * 1e3,
        "final_shards": fabric.shards,
        "lost_requests": channel.lost_requests,
    }
    if scaler is not None:
        row["splits"] = scaler.splits
        row["merges"] = scaler.merges
        row["decisions"] = scaler.decision_trace()
        row["rebalances"] = [_stats_row(s)
                             for s in scaler.coordinator.history]
    return row


@scenario(
    "fabric-autoscale",
    title="SLO-driven autoscaler on a diurnal trace: fixed vs elastic shards",
    paper_ref="beyond the paper (service architecture, §3.1/§3.4)",
    group="scale", tags=("bench", "fabric"))
def run_fabric_autoscale(
    base_rps: float = 15.0,
    peak_rps: float = 220.0,
    period_s: float = 120.0,
    horizon_s: float = 120.0,
    flash_at_s: float = 66.0,
    flash_rps: float = 120.0,
    flash_duration_s: float = 8.0,
    n_keys: int = 240,
    service_hosts: int = 4,
    max_shards: int = 4,
    target_p99_ms: float = 60.0,
    ring_vnodes: int = 64,
    operation_cost_s: float = 4e-3,
    seed: int = 9,
) -> Dict[str, object]:
    """SLO violation-seconds on one diurnal day: fixed vs autoscaled fabric.

    The compressed "day" swings between ``base_rps`` and ``peak_rps`` with
    a flash spike near the peak; the midday hump exceeds one shard's
    database capacity (≈ 1 / (2·``operation_cost_s``) requests/s), so the
    fixed single-shard deployment queues and blows through the p99 target
    for most of the afternoon.  The autoscaled run holds the same target
    by splitting live — paying the migration while serving — and merges
    back on the ebb.  ``violation_improvement_x`` is the fixed/autoscaled
    violation-seconds ratio (the ≥3× BENCH gate).
    """
    profile = DiurnalProfile(
        base_rps=base_rps, peak_rps=peak_rps, period_s=period_s,
        peak_at_frac=0.5, flash_at_s=flash_at_s, flash_rps=flash_rps,
        flash_duration_s=flash_duration_s)
    common = dict(
        profile=profile, horizon_s=horizon_s, n_keys=n_keys,
        service_hosts=service_hosts, max_shards=max_shards,
        target_p99_s=target_p99_ms / 1e3, ring_vnodes=ring_vnodes,
        operation_cost_s=operation_cost_s, seed=seed)
    fixed = _diurnal_once(autoscale=False, **common)
    autoscaled = _diurnal_once(autoscale=True, **common)
    fixed_v = fixed["violation_seconds"]
    auto_v = autoscaled["violation_seconds"]
    improvement = (fixed_v / auto_v if auto_v > 0
                   else (float("inf") if fixed_v > 0 else 1.0))
    return {
        "scenario": "fabric-autoscale",
        "base_rps": base_rps,
        "peak_rps": peak_rps,
        "period_s": period_s,
        "horizon_s": horizon_s,
        "flash_at_s": flash_at_s,
        "flash_rps": flash_rps,
        "target_p99_ms": target_p99_ms,
        "n_keys": n_keys,
        "max_shards": max_shards,
        "shard_capacity_rps": 1.0 / (2.0 * operation_cost_s),
        "fixed": fixed,
        "autoscaled": autoscaled,
        "violation_improvement_x": improvement,
    }
