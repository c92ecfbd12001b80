"""Service-fabric benchmarks: sharded throughput and failover recovery.

Beyond the paper: the fabric (`repro.services.fabric`) shards the Data
Catalog and Data Scheduler over N service hosts.  These tests pin the two
properties the deployment is for — aggregate service throughput scaling
with the shard count, and client-visible recovery from a service-host
crash within one heartbeat timeout.

Both scenarios are pure simulation, so every asserted number is
deterministic; the ≥2× throughput gate arms on the sharded configuration
itself (≥4 shards).

``REPRO_SIZES`` sizes the throughput storm (``benchmarks/conftest.py``).
"""

from __future__ import annotations

from repro.bench.fabric import run_fabric_failover, run_fabric_scale
from repro.bench.reporting import format_table, shape_check

from benchmarks.conftest import emit, sizes


class TestFabricScale:
    def test_sharded_storm_throughput(self):
        """Flash-crowd service storm: S-shard fabric vs centralized container.

        The request stream is identical (same hosts, same catalog traffic,
        same Θ); only the deployment differs.  At ≥4 shards the sharded
        catalog+scheduler must sustain at least twice the centralized
        container's throughput — the makespan ratio on the same storm.
        """
        metrics = run_fabric_scale(**sizes("fabric-scale"))
        central = metrics["centralized"]
        sharded = metrics["sharded"]
        emit("Fabric scale (%d hosts, %d shards)"
             % (metrics["n_hosts"], metrics["shards"]),
             format_table([
                 {"deployment": "centralized", **{k: central[k] for k in (
                     "makespan_s", "throughput_rps", "serviced_requests")}},
                 {"deployment": "%d shards" % metrics["shards"],
                  **{k: sharded[k] for k in (
                      "makespan_s", "throughput_rps", "serviced_requests")}},
             ]))

        checks = shape_check("fabric scale")
        # Identical client workload: same catalog traffic and client syncs;
        # the sync storm hits every scheduler shard (scatter), hence S× the
        # per-shard sync statements.
        checks.is_true(
            "same catalog load",
            sharded["catalog_requests"] == central["catalog_requests"])
        checks.is_true(
            "same client sync count",
            sharded["client_syncs"] == central["client_syncs"])
        checks.is_true(
            "sync storm scatters over every shard",
            sharded["shard_sync_count"]
            == central["shard_sync_count"] * metrics["shards"])
        checks.is_true("every storm round completed",
                       sharded["makespan_s"] > 0
                       and central["makespan_s"] > 0)
        if metrics["shards"] >= 4:
            checks.ratio_at_least(
                "sharded throughput vs centralized container",
                metrics["throughput_x"], 2.0)
        checks.verify()


class TestFabricFailover:
    def test_clients_resume_within_one_heartbeat_timeout(self):
        """A service-host crash reroutes clients to a live replica.

        The primary service host crashes mid-run; requests to shards whose
        primary replica lived there retry under the failover policy until
        the fabric's host detector declares the crash, then land on the
        replica.  Every client must resume within one heartbeat timeout of
        the crash, and no request may be lost.
        """
        metrics = run_fabric_failover()
        emit("Fabric failover", format_table([
            {k: metrics[k] for k in (
                "host_timeout_s", "detect_s", "recovery_s", "reroutes",
                "failover_attempts", "failed_syncs", "lost_requests")}
        ]))

        checks = shape_check("fabric failover")
        checks.is_true("all data placed before the crash",
                       metrics["placed_before_crash"] == metrics["n_data"])
        checks.is_true("every client resumed",
                       metrics["hosts_recovered"] == metrics["n_hosts"])
        checks.is_true(
            "clients resume within one heartbeat timeout",
            metrics["recovery_s"] is not None
            and metrics["recovery_s"] <= metrics["host_timeout_s"])
        checks.is_true(
            "detection itself is heartbeat-driven (not instantaneous)",
            metrics["detect_s"] is not None and metrics["detect_s"] > 0)
        checks.is_true("failover bridged the detection window",
                       metrics["failover_attempts"] > 0)
        checks.is_true("requests rerouted to a live replica",
                       metrics["reroutes"] > 0)
        checks.is_true("no request lost", metrics["lost_requests"] == 0)
        checks.is_true("no synchronisation failed",
                       metrics["failed_syncs"] == 0)
        checks.verify()
