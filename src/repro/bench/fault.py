"""Fault-tolerance scenario harness: Figure 4.

The paper's scenario (§4.4), run on DSL-Lab: a datum is created with
``replica = 5, fault tolerance = true, protocol = ftp``; the runtime must
keep five replicas alive.  Every 20 seconds one machine owning the datum is
killed while a new machine joins.  The measurements are, for each new
arrival, the elapsed time between the node's arrival and the datum being
scheduled to it (dominated by the 3 x heartbeat failure-detection timeout),
the download time, and the download bandwidth (heterogeneous across ADSL
lines).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.attributes import Attribute
from repro.core.runtime import BitDewEnvironment
from repro.experiments.registry import scenario
from repro.net.topology import dsl_lab_topology
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.storage.filesystem import FileContent
from repro.workloads.traces import ChurnScript, crash_replace_script

__all__ = ["run_fig4"]


@scenario(
    "fig4",
    title="Fault-tolerant replicated storage under scripted churn",
    paper_ref="Figure 4 (§4.4)",
    tags=("churn",))
def run_fig4(
    size_mb: float = 5.0,
    replica: int = 5,
    n_initial: int = 5,
    n_spare: int = 5,
    crash_interval_s: float = 20.0,
    heartbeat_period_s: float = 1.0,
    timeout_multiplier: float = 3.0,
    sync_period_s: float = 1.0,
    settle_s: float = 60.0,
    horizon_s: float = 260.0,
    seed: int = 42,
) -> Dict[str, object]:
    """Run the Figure 4 scenario and return the per-arrival timeline."""
    if n_initial < 1:
        raise ValueError(f"n_initial must be at least 1, got {n_initial!r}")
    if n_initial + n_spare > 12:
        raise ValueError("DSL-Lab has 12 nodes; n_initial + n_spare must fit")
    env = Environment()
    rng = RandomStreams(seed)
    topo = dsl_lab_topology(env, n_workers=n_initial + n_spare, rng=rng)
    runtime = BitDewEnvironment(
        topo,
        sync_period_s=sync_period_s,
        heartbeat_period_s=heartbeat_period_s,
        timeout_multiplier=timeout_multiplier,
        monitor_period_s=0.5,
        seed=seed,
    )
    master = runtime.attach(topo.service_host, auto_sync=False)

    initial_hosts = topo.worker_hosts[:n_initial]
    spare_hosts = topo.worker_hosts[n_initial:n_initial + n_spare]

    content = FileContent.from_seed("replicated.dat", size_mb)
    attribute = Attribute(name="replicated", replica=replica,
                          fault_tolerance=True, protocol="ftp")

    published = {}

    def master_program():
        data = yield from master.bitdew.create_data("replicated.dat", content=content)
        yield from master.bitdew.put(data, content, protocol="ftp")
        yield from master.active_data.schedule(data, attribute)
        published["data"] = data
        return data

    setup = env.process(master_program())
    env.run(until=setup)
    data = published["data"]

    # The initial owner population.
    for host in initial_hosts:
        runtime.attach(host)

    # Let the initial replicas settle before injecting churn.
    env.run(until=env.now + settle_s)

    script = ChurnScript(runtime, crash_replace_script(
        [h.name for h in initial_hosts],
        [h.name for h in spare_hosts],
        interval_s=crash_interval_s,
        start_s=env.now,
    ))
    script.start()
    env.run(until=horizon_s)

    rows: List[Dict[str, float]] = []
    for host in topo.worker_hosts:
        agent = runtime.agents.get(host.name)
        if agent is None:
            continue
        stats = agent.stats.get(data.uid)
        if stats is None or stats.download_completed_at is None:
            continue
        is_replacement = host in spare_hosts
        wait = (stats.assigned_at - agent.attached_at
                if stats.assigned_at is not None else None)
        rows.append({
            "host": host.name,
            "replacement": bool(is_replacement),
            "attached_at": agent.attached_at,
            "assigned_at": stats.assigned_at,
            "wait_s": wait,
            "download_s": stats.download_time_s,
            "bandwidth_kbps": (stats.bandwidth_mbps or 0.0) * 1024.0,
        })

    owners = runtime.data_scheduler.owners_of(data.uid)
    live_owners = [name for name in owners
                   if name in runtime.agents
                   and runtime.agents[name].host.online
                   and runtime.agents[name].has_content(data.uid)]
    replacement_rows = [r for r in rows if r["replacement"]]
    return {
        "rows": rows,
        "replacement_rows": replacement_rows,
        "timeout_s": heartbeat_period_s * timeout_multiplier,
        "live_replicas": len(live_owners),
        "requested_replicas": replica,
        "crashes": len([e for e in script.applied if e.action == "crash"]),
        "joins": len([e for e in script.applied if e.action == "join"]),
    }
