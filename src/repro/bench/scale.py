"""Scaling benchmarks beyond the paper's grids.

The paper stops at 275 workers (Fig. 5) and a few hundred data items; the
ROADMAP's north star is production scale.  This harness stresses exactly the
two hot paths the O(active)-work refactor targets:

* :func:`run_sync_storm` — N workers all starting a download from the same
  file server at the same instant (the worst case for per-event global
  bandwidth re-allocation), repeated for several rounds.  It reports the
  allocation passes the network ran against the re-allocations requested:
  the network settles each timestamp once, where the per-event
  reference of the tests runs one pass per request.

* :func:`run_completion_curve` — the Fig. 3a FTP shape at scale: with the
  server uplink as the bottleneck, completion time must keep growing
  linearly with the worker count well past the paper's 250 nodes.

* :func:`run_scale_grid` — the full runtime at ≥1000 hosts × ≥5000 data
  items: data is scheduled with a replica target, every host synchronises
  in batched storms (:meth:`BitDewEnvironment.kick_sync`), downloads flow
  through the DC/DR/DT protocol stack, and the indexed Data Scheduler must
  place every datum without ever scanning all of Θ.

* :func:`run_scale_grid_100k` — the 100k-host tier: identical hosts are
  batched into array-backed cohorts (:mod:`repro.workloads.cohort`), each
  driven by a single generator calling the Data Scheduler's
  ``compute_schedule_batch`` once per round and the flow network directly.

* :func:`run_scale_grid_300k` — the same grid at 3× the sizes.

Each function returns a plain dict of simulated quantities and counts
(``processed_events`` among them); ``benchmarks/test_scale_grid.py`` asserts
the curve shapes.  None reads the host clock: how fast a run goes is
``perfbench``'s question, and the CLI's ``# stats:`` line.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, List, Sequence

from repro.core.attributes import Attribute
from repro.experiments.registry import scenario
from repro.core.data import Data
from repro.core.runtime import BitDewEnvironment
from repro.net.flows import Network
from repro.net.host import Host
from repro.net.topology import cluster_topology
from repro.sim.kernel import Environment
from repro.storage.filesystem import FileContent
from repro.workloads.cohort import (
    build_cohorts,
    cohort_heartbeat_process,
    cohort_sync_process,
)

__all__ = ["run_completion_curve", "run_scale_grid", "run_scale_grid_100k",
           "run_scale_grid_300k", "run_sync_storm"]


@contextlib.contextmanager
def _gc_paused() -> Iterator[Callable[[], None]]:
    """Pause the cyclic collector over a world's build and run: a speed measure.

    Yields ``freeze_built``, which the body calls once, between building
    its world and starting it.  Simulated results depend on none of this.

    *Paused:* from entry to exit no collection starts.  The build allocates
    a ~2M-object world at 100k hosts in which nothing is garbage yet, and
    the run churns acyclic garbage (events, flows, sync results) that
    reference counting frees at once; the collector would only re-traverse
    both.  Paused over the run alone, perfbench ``storm-100k`` ran 815
    young, 74 middle and 7 full passes outside ``Environment.run``: six
    full passes during the build (0.03–0.13 s each, 0 objects freed) and
    the exit collection, which walked the live world (0.45 s).  Unpaused,
    young passes also cost ~20 % of ``env.run()``.

    *Frozen:* ``freeze_built()`` moves every object alive at that point
    into the collector's permanent generation (``gc.freeze()``), so the exit
    collection does not walk the built world.  When a caller has frozen
    objects itself (``gc.get_freeze_count()`` non-zero at entry) they stay
    frozen and ``freeze_built`` does nothing.

    *Collected:* on exit, if the collector was enabled at entry, one full
    ``gc.collect()`` walks what was created after the freeze and frees every
    cycle the run left: on ``storm-100k`` the 100,000 ``Flow`` ↔
    ``done``-event cycles and the cohort processes' self-cycles, 200,600
    objects in the one full pass left.  Then ``gc.unfreeze()`` runs (also on
    an exception, and with the collector disabled at entry) and the
    collector is re-enabled if it was.
    """
    import gc

    was_enabled = gc.isenabled()
    owns_freeze = gc.get_freeze_count() == 0
    gc.disable()
    try:
        yield gc.freeze if owns_freeze else (lambda: None)
    finally:
        if was_enabled:
            gc.collect()
        if owns_freeze:
            gc.unfreeze()
        if was_enabled:
            gc.enable()


@scenario(
    "sync-storm",
    title="N simultaneous downloads from one server, repeated rounds",
    paper_ref="beyond the paper (BENCH trajectory)",
    group="scale", tags=("bench",))
def run_sync_storm(
    n_workers: int = 500,
    rounds: int = 2,
    size_mb: float = 5.0,
    server_link_mbps: float = 1000.0,
    node_link_mbps: float = 10.0,
    latency_s: float = 0.001,
) -> Dict[str, object]:
    """N simultaneous downloads from one server, ``rounds`` times over.

    Aggregate worker demand (``n_workers * node_link_mbps``) should exceed
    the server uplink so every flow shares one bottleneck — the regime of
    the paper's FTP distribution experiments.
    """
    if n_workers <= 0 or rounds <= 0:
        raise ValueError("n_workers and rounds must be positive")
    env = Environment()
    network = Network(env, default_latency_s=latency_s)
    server = network.add_host(Host(
        "server", uplink_mbps=server_link_mbps,
        downlink_mbps=server_link_mbps, stable=True))
    workers = [
        network.add_host(Host(f"w{i:04d}", uplink_mbps=node_link_mbps,
                              downlink_mbps=node_link_mbps))
        for i in range(n_workers)
    ]
    # Leave slack between rounds so each storm drains before the next hits.
    round_gap = (n_workers * size_mb) / server_link_mbps * 1.5 + 1.0
    flows: List = []

    def start_round(_evt, r: int) -> None:
        for worker in workers:
            flows.append(network.transfer(server, worker, size_mb,
                                          label=f"round-{r}"))

    for r in range(rounds):
        env.timeout(r * round_gap).add_callback(
            lambda evt, r=r: start_round(evt, r))

    env.run()
    end_times = [flow.end_time for flow in flows]
    return {
        "scenario": "sync-storm",
        "n_workers": n_workers,
        "rounds": rounds,
        "size_mb": size_mb,
        "sim_completion_s": max(end_times),
        "end_times": end_times,
        "completed_flows": network.completed_flows,
        "allocation_passes": network.allocation_passes,
        "recompute_requests": network.recompute_requests,
        "processed_events": env.processed_events,
    }


@scenario(
    "completion-curve",
    title="Completion time vs worker count past the paper's grid",
    paper_ref="beyond the paper (Figure 3a shape at scale)",
    group="scale", tags=("bench",))
def run_completion_curve(
    worker_counts: Sequence[int] = (250, 500, 1000),
    size_mb: float = 2.0,
    server_link_mbps: float = 1000.0,
    node_link_mbps: float = 10.0,
) -> List[Dict[str, object]]:
    """Completion time vs worker count with a server-uplink bottleneck."""
    rows: List[Dict[str, object]] = []
    for n_workers in worker_counts:
        metrics = run_sync_storm.scenario_impl(
            n_workers=n_workers, rounds=1, size_mb=size_mb,
            server_link_mbps=server_link_mbps, node_link_mbps=node_link_mbps)
        rows.append({
            "n_workers": n_workers,
            "sim_completion_s": metrics["sim_completion_s"],
            "allocation_passes": metrics["allocation_passes"],
        })
    return rows


@scenario(
    "scale-grid",
    title="Full runtime at ≥1000 hosts × ≥5000 data items",
    paper_ref="beyond the paper (BENCH trajectory)",
    group="scale", tags=("bench",),
    sizes={"reduced": {"n_hosts": 40, "n_data": 120}})
def run_scale_grid(
    n_hosts: int = 1000,
    n_data: int = 5000,
    replica: int = 1,
    size_mb: float = 0.2,
    max_data_schedule: int = 8,
    sync_rounds: int = 3,
    monitor_period_s: float = 5.0,
    seed: int = 7,
) -> Dict[str, object]:
    """Sync+transfer storm through the full runtime at production scale.

    ``n_data`` data items are created on the service host and scheduled with
    a replica target; ``n_hosts`` reservoir hosts then synchronise in
    simultaneous batches until everything is placed and downloaded.
    """
    if n_hosts <= 0 or n_data <= 0:
        raise ValueError("n_hosts and n_data must be positive")
    if not sync_rounds > 0:
        raise ValueError(f"sync_rounds must be positive, got {sync_rounds!r}")
    env = Environment()
    topo = cluster_topology(env, n_workers=n_hosts,
                            server_link_mbps=1000.0, node_link_mbps=125.0)
    runtime = BitDewEnvironment(
        topo,
        sync_period_s=3600.0,          # pull loops are driven by kick_sync
        monitor_period_s=monitor_period_s,
        heartbeat_period_s=3600.0,
        max_data_schedule=max_data_schedule,
        seed=seed,
    )
    scheduler = runtime.data_scheduler
    repository = runtime.container.data_repository
    catalog = runtime.container.data_catalog

    attribute = Attribute(name="grid", replica=replica, protocol="http")
    datas: List[Data] = []
    for i in range(n_data):
        content = FileContent.from_seed(f"grid-{i:05d}", size_mb)
        data = Data.from_content(content)
        locator = repository.store_now(data, content)
        catalog.add_locator_now(locator)
        scheduler.schedule(data, attribute)
        datas.append(data)

    runtime.attach_all(auto_sync=False)
    examined_before = scheduler.entries_examined
    for _round in range(sync_rounds):
        done = runtime.kick_sync()
        env.run(until=done)

    placed = sum(
        1 for data in datas
        if len(scheduler.owners_of(data.uid)) >= min(replica, n_hosts))
    downloaded = sum(
        1 for agent in runtime.agents.values()
        for uid in agent.cached_uids()
        if agent.has_content(uid))
    network = topo.network
    return {
        "scenario": "scale-grid",
        "n_hosts": n_hosts,
        "n_data": n_data,
        "replica": replica,
        "size_mb": size_mb,
        "sync_rounds": sync_rounds,
        "placed": placed,
        "downloaded": downloaded,
        "sim_time_s": env.now,
        "sync_count": scheduler.sync_count,
        "assignments": scheduler.assignments,
        "entries_examined": scheduler.entries_examined - examined_before,
        "managed_count": scheduler.managed_count,
        "allocation_passes": network.allocation_passes,
        "recompute_requests": network.recompute_requests,
        "completed_flows": network.completed_flows,
        "processed_events": env.processed_events,
    }


@scenario(
    "scale-grid-100k",
    title="Cohort-batched placement storm at ≥100k hosts",
    paper_ref="beyond the paper (BENCH trajectory)",
    group="scale", tags=("bench", "kernel"),
    sizes={"reduced": {"n_hosts": 1000, "n_data": 250, "cohort_size": 250}})
def run_scale_grid_100k(
    n_hosts: int = 100_000,
    n_data: int = 25_000,
    replica: int = 4,
    size_mb: float = 0.5,
    cohort_size: int = 1000,
    sync_rounds: int = 2,
    max_data_schedule: int = 1,
    stagger_s: float = 0.25,
    sync_gap_s: float = 1.0,
    heartbeat_period_s: float = 5.0,
    heartbeat_duration_s: float = 40.0,
    server_link_mbps: float = 8000.0,
    node_link_mbps: float = 125.0,
) -> Dict[str, object]:
    """Cohort-batched sync+download storm at the 100k-host tier.

    ``n_hosts`` identical reservoir hosts are partitioned into array-backed
    cohorts of ``cohort_size``; each cohort is driven by one sync generator
    (one ``compute_schedule_batch`` call per round — oracle-pinned equal to
    ``cohort_size`` sequential ``compute_schedule`` calls — starting real
    flows on the shared network) plus one heartbeat timer.
    With the defaults every host downloads exactly one replica
    (``n_data * replica == n_hosts``, one assignment per sync), so the run
    is a full placement of ``n_data`` items over 100k hosts.
    """
    if n_hosts <= 0 or n_data <= 0:
        raise ValueError("n_hosts and n_data must be positive")
    for name, value in (("cohort_size", cohort_size),
                        ("sync_rounds", sync_rounds),
                        ("heartbeat_period_s", heartbeat_period_s)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    for name, value in (("stagger_s", stagger_s), ("sync_gap_s", sync_gap_s),
                        ("heartbeat_duration_s", heartbeat_duration_s)):
        if not value >= 0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    with _gc_paused() as freeze_built:
        env = Environment()
        network = Network(env, default_latency_s=0.0002)
        server = network.add_host(Host(
            "grid-service", uplink_mbps=server_link_mbps,
            downlink_mbps=server_link_mbps, stable=True))
        hosts = [
            network.add_host(Host(f"c{i:06d}", uplink_mbps=node_link_mbps,
                                  downlink_mbps=node_link_mbps))
            for i in range(n_hosts)
        ]

        from repro.services.data_scheduler import DataSchedulerService
        ds = DataSchedulerService(env, max_data_schedule=max_data_schedule)
        attribute = Attribute(name="grid", replica=replica, protocol="http")
        size_mb_of: Dict[str, float] = {}
        datas: List[Data] = []
        for i in range(n_data):
            data = Data(name=f"grid-{i:05d}", size_mb=size_mb)
            ds.schedule(data, attribute)
            size_mb_of[data.uid] = size_mb
            datas.append(data)

        cohorts = build_cohorts(hosts, cohort_size)

        def sync(host_names: List[str], cached_per_host: List[set]):
            ds.sync_count += len(host_names)
            return ds.compute_schedule_batch(host_names, cached_per_host)

        def transfer(host: Host, uid: str):
            return network.transfer(server, host, size_mb_of[uid])

        # The cohort processes stay out of the freeze: their self-cycles
        # are garbage once the run ends, and the exit collection frees them.
        freeze_built()
        for cohort in cohorts:
            env.process(cohort_sync_process(
                env, cohort, sync, transfer, size_mb_of,
                rounds=sync_rounds, stagger_s=stagger_s,
                sync_gap_s=sync_gap_s))
            env.process(cohort_heartbeat_process(
                env, cohort, period_s=heartbeat_period_s,
                duration_s=heartbeat_duration_s))
        env.run()

    placed = sum(
        1 for data in datas
        if len(ds.owners_of(data.uid)) >= min(replica, n_hosts))
    return {
        "scenario": "scale-grid-100k",
        "n_hosts": n_hosts,
        "n_data": n_data,
        "replica": replica,
        "size_mb": size_mb,
        "cohorts": len(cohorts),
        "cohort_size": cohort_size,
        "sync_rounds": sync_rounds,
        "placed": placed,
        "downloaded": sum(c.total_downloads for c in cohorts),
        "transferred_mb": sum(c.total_bytes_mb for c in cohorts),
        "last_completion_s": max(c.last_completion_s for c in cohorts),
        "syncs": sum(c.syncs for c in cohorts),
        "heartbeats": sum(c.heartbeats for c in cohorts),
        "sim_time_s": env.now,
        "assignments": ds.assignments,
        "entries_examined": ds.entries_examined,
        "managed_count": ds.managed_count,
        "allocation_passes": network.allocation_passes,
        "recompute_requests": network.recompute_requests,
        "completed_flows": network.completed_flows,
        "processed_events": env.processed_events,
    }


@scenario(
    "scale-grid-300k",
    title="Batched-placement storm at 300k hosts",
    paper_ref="beyond the paper (BENCH trajectory)",
    group="scale", tags=("bench", "kernel"),
    sizes={"reduced": {"n_hosts": 1000, "n_data": 250, "cohort_size": 250}})
def run_scale_grid_300k(
    n_hosts: int = 300_000,
    n_data: int = 75_000,
    replica: int = 4,
    size_mb: float = 0.5,
    cohort_size: int = 1000,
    sync_rounds: int = 2,
    max_data_schedule: int = 1,
    stagger_s: float = 0.25,
    sync_gap_s: float = 1.0,
    heartbeat_period_s: float = 5.0,
    heartbeat_duration_s: float = 40.0,
    server_link_mbps: float = 24_000.0,
    node_link_mbps: float = 125.0,
) -> Dict[str, object]:
    """The 300k-host tier: the 100k grid scaled 3×.

    Same workload shape as :func:`run_scale_grid_100k` — one replica per
    host (``n_data * replica == n_hosts``), cohort-batched sync storms,
    heartbeat background traffic — at triple the hosts, data and server
    link.
    """
    results = run_scale_grid_100k.scenario_impl(
        n_hosts=n_hosts, n_data=n_data, replica=replica, size_mb=size_mb,
        cohort_size=cohort_size, sync_rounds=sync_rounds,
        max_data_schedule=max_data_schedule, stagger_s=stagger_s,
        sync_gap_s=sync_gap_s, heartbeat_period_s=heartbeat_period_s,
        heartbeat_duration_s=heartbeat_duration_s,
        server_link_mbps=server_link_mbps, node_link_mbps=node_link_mbps)
    results["scenario"] = "scale-grid-300k"
    return results
