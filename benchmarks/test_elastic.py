"""Elastic-fabric benchmarks: zero-loss live rebalancing and the autoscaler.

Beyond the paper: PR 5 sharded the Data Catalog and Data Scheduler; this
layer makes the shard count a *runtime* knob.  These tests pin the two
claims the elasticity is for — a live split+merge under client traffic
loses and duplicates nothing while moving only ~the consistent-hashing
minimum of keys, and the SLO-driven autoscaler cuts the violation-seconds
integral of a diurnal day by ≥3× versus a fixed deployment.

Both scenarios are pure simulation, so every asserted number is
deterministic.  ``REPRO_SIZES`` sizes the rebalance run
(``benchmarks/conftest.py``); the autoscale day is already compressed to
120 s and runs as-is.
"""

from __future__ import annotations

from repro.bench.elastic import run_fabric_autoscale, run_fabric_rebalance
from repro.bench.reporting import format_table, shape_check

from benchmarks.conftest import emit, sizes


class TestFabricRebalance:
    def test_live_split_and_merge_lose_nothing(self):
        """One forced split and one forced merge under sustained traffic.

        Clients publish unique key/value pairs (reading each back),
        synchronise periodically, and never stop while the coordinator
        reshapes the ring twice.  The ledger plus the post-run raw audit
        must show zero lost and zero duplicated pairs, the scheduler must
        keep every datum on exactly one shard, and each migration must
        move no more than 1.25× the ``K·1/max(S,S')`` minimum.
        """
        metrics = run_fabric_rebalance(**sizes("fabric-rebalance"))
        transitions = metrics["transitions"]
        emit("Fabric rebalance (%d hosts, %d→%d→%d shards)"
             % (metrics["n_hosts"], metrics["shards_before"],
                metrics["shards_before"] + 1, metrics["shards_after"]),
             format_table([
                 {k: t[k] for k in ("kind", "keys_moved", "minimum_moves",
                                    "move_ratio", "dirty_rounds",
                                    "duration_s")}
                 for t in transitions]))

        checks = shape_check("fabric rebalance")
        checks.is_true("split then merge both completed",
                       [t["kind"] for t in transitions]
                       == ["split", "merge"])
        checks.is_true("ring returned to its original shape",
                       metrics["shards_after"] == metrics["shards_before"])
        checks.is_true("traffic actually crossed the migrations",
                       metrics["completed_publishes"] > 0
                       and metrics["client_syncs"] > 0)
        checks.is_true("zero lost pairs", metrics["lost_pairs"] == 0)
        checks.is_true("zero duplicated pairs",
                       metrics["duplicated_pairs"] == 0)
        checks.is_true("zero misplaced pairs",
                       metrics["misplaced_pairs"] == 0)
        checks.is_true("every read-back observed its own write",
                       metrics["readback_misses"] == 0)
        checks.is_true("no request lost", metrics["lost_requests"] == 0)
        checks.is_true("no client saw an error",
                       metrics["client_errors"] == 0)
        checks.is_true("scheduler entries on exactly one shard each",
                       metrics["scheduler_multi_homed"] == 0)
        for t in transitions:
            checks.is_true(
                "%s moved ≤1.25× the consistent-hash minimum" % t["kind"],
                t["keys_moved"] <= t["minimum_moves"] * 1.25)
        checks.verify()


class TestFabricAutoscale:
    def test_autoscaler_cuts_violation_seconds_3x(self):
        """The compressed diurnal day, fixed single shard vs autoscaled.

        The midday hump exceeds one shard's database capacity, so the
        fixed deployment queues and violates the p99 target for most of
        the afternoon; the autoscaler splits live through the hump (and
        the flash spike on top of it), then merges back on the ebb.  The
        violation-seconds integral must improve ≥3×, and the decision
        trace must actually contain live splits *and* merges — elasticity,
        not a one-way ratchet.
        """
        metrics = run_fabric_autoscale()
        fixed = metrics["fixed"]
        autoscaled = metrics["autoscaled"]
        emit("Fabric autoscale (%.0f→%.0f rps day, %.0f rps/shard)"
             % (metrics["base_rps"], metrics["peak_rps"],
                metrics["shard_capacity_rps"]),
             format_table([
                 {"deployment": "fixed (1 shard)",
                  **{k: fixed[k] for k in (
                      "violation_seconds", "worst_p99_ms", "completed",
                      "final_shards")}},
                 {"deployment": "autoscaled (≤%d)" % metrics["max_shards"],
                  **{k: autoscaled[k] for k in (
                      "violation_seconds", "worst_p99_ms", "completed",
                      "final_shards")}},
             ]))

        checks = shape_check("fabric autoscale")
        checks.is_true("identical trace replayed on both deployments",
                       fixed["arrivals"] == autoscaled["arrivals"])
        checks.is_true("every request completed on both",
                       fixed["errors"] == 0 and autoscaled["errors"] == 0
                       and fixed["completed"] == fixed["arrivals"]
                       and autoscaled["completed"]
                       == autoscaled["arrivals"])
        checks.is_true("the day genuinely overloads one shard",
                       metrics["peak_rps"] > metrics["shard_capacity_rps"]
                       and fixed["violation_seconds"] > 0)
        checks.is_true("autoscaler both split and merged",
                       autoscaled["splits"] > 0
                       and autoscaled["merges"] > 0)
        checks.is_true("fabric scaled back down on the ebb",
                       autoscaled["final_shards"] == 1)
        checks.is_true("no request lost on either deployment",
                       fixed["lost_requests"] == 0
                       and autoscaled["lost_requests"] == 0)
        checks.ratio_at_least("violation-seconds improvement vs fixed",
                              metrics["violation_improvement_x"], 3.0)
        checks.verify()
