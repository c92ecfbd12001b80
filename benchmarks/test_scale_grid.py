"""Scaling benchmark: sync storms and the 1000-host × 5000-datum grid.

This is not a figure from the paper — it is the repo's first *trajectory*
benchmark: it pins the asymptotic behaviour of the refactored hot paths
(coalesced incremental bandwidth allocation, fully indexed Data Scheduler)
at a scale the paper never reached.  It asserts shapes and prints tables;
timing across commits is ``perfbench``'s job (``BENCHMARK.json``).

Set ``REPRO_SCALE_QUICK=1`` to run reduced sizes (used by the CI smoke job).
"""

from __future__ import annotations

import os

from repro.bench.reporting import format_table, shape_check
from repro.bench.scale import (
    run_completion_curve,
    run_scale_grid,
    run_scale_grid_100k,
    run_scale_grid_300k,
    run_sync_storm,
)
from repro.services.heartbeat import FailureDetector
from repro.sim.kernel import Environment

from benchmarks.conftest import emit


def quick_scale() -> bool:
    return os.environ.get("REPRO_SCALE_QUICK", "0") not in ("0", "", "false")


class TestSyncStormAllocator:
    def test_storm_speedup_and_equivalence(self):
        """The 500-worker sync storm: same simulated results, ≥5× fewer passes.

        The dense, per-event allocator is exactly the seed implementation;
        the coalesced incremental allocator must reproduce its completion
        times bit-for-bit while doing a small, bounded number of allocation
        passes instead of one global recompute per flow event.
        """
        n_workers = 100 if quick_scale() else 500
        rounds = 2
        dense = run_sync_storm(n_workers=n_workers, rounds=rounds,
                               allocator="dense", coalesce=False)
        incremental = run_sync_storm(n_workers=n_workers, rounds=rounds,
                                     allocator="incremental", coalesce=True)

        # Determinism: the refactor must not change observable behaviour.
        assert incremental["end_times"] == dense["end_times"]
        assert incremental["completed_flows"] == dense["completed_flows"]

        checks = shape_check("sync-storm allocators")
        # One recompute request per flow event either way...
        checks.is_true(
            "both allocators saw the same storm",
            incremental["recompute_requests"] == dense["recompute_requests"])
        # ...but coalescing settles each timestamp once: a handful of passes
        # per round instead of one global recompute per flow event.
        checks.is_true(
            "coalescing bounds allocation passes",
            incremental["allocation_passes"] <= 4 * rounds + 2)
        # The dense path runs one global recompute per flow event.
        checks.ratio_at_least(
            "allocation passes eliminated",
            dense["allocation_passes"] / incremental["allocation_passes"], 5.0)
        emit("Sync storm (%d workers, %d rounds)" % (n_workers, rounds),
             format_table([
                 {"allocator": d["allocator"], "coalesce": d["coalesce"],
                  "allocation_passes": d["allocation_passes"],
                  "sim_completion_s": d["sim_completion_s"]}
                 for d in (dense, incremental)]))
        checks.verify()


class TestCompletionCurveAtScale:
    def test_server_bottleneck_curve_stays_linear(self):
        """Fig. 3a's FTP shape extends past the paper's grid: with the server
        uplink as bottleneck, completion time keeps growing linearly in the
        worker count up to 1000 nodes."""
        if quick_scale():
            # Keep the server uplink the bottleneck at reduced worker counts.
            counts, server_link = (50, 100, 200), 100.0
        else:
            counts, server_link = (250, 500, 1000), 1000.0
        rows = run_completion_curve(worker_counts=counts,
                                    server_link_mbps=server_link)
        emit("Completion curve at scale", format_table(rows))
        checks = shape_check("completion curve")
        t = {row["n_workers"]: row["sim_completion_s"] for row in rows}
        checks.is_true("monotone growth",
                       t[counts[0]] < t[counts[1]] < t[counts[2]])
        ratio = t[counts[2]] / t[counts[0]]
        expected = counts[2] / counts[0]
        checks.within("linear scaling ratio", ratio,
                      0.7 * expected, 1.3 * expected)
        checks.verify()


class TestScaleGrid:
    def test_grid_sync_transfer_storm(self):
        """≥1000 hosts × ≥5000 data items through the full runtime.

        Every datum must be placed and downloaded, and the indexed scheduler
        must have examined only assignable candidates — not all of Θ for
        each of the thousands of synchronisations.
        """
        if quick_scale():
            n_hosts, n_data = 100, 500
        else:
            n_hosts, n_data = 1000, 5000
        metrics = run_scale_grid(n_hosts=n_hosts, n_data=n_data,
                                 sync_rounds=3)
        emit("Scale grid", format_table([
            {k: metrics[k] for k in (
                "n_hosts", "n_data", "placed", "downloaded",
                "entries_examined", "allocation_passes", "processed_events")}
        ]))

        checks = shape_check("scale grid")
        checks.is_true("every datum placed", metrics["placed"] == n_data)
        checks.is_true("every datum downloaded",
                       metrics["downloaded"] == n_data)
        # The naive scheduler would examine |Θ| entries per sync:
        # sync_count × n_data ≫ what the indexes allow.
        naive_examinations = metrics["sync_count"] * n_data
        checks.is_true(
            "no full Θ scans (examined ≪ sync_count × |Θ|)",
            metrics["entries_examined"] <= 2 * n_data
            and metrics["entries_examined"] < naive_examinations / 100)
        checks.is_true("coalescing active",
                       metrics["allocation_passes"]
                       < metrics["recompute_requests"])
        checks.verify()


class TestScaleGrid100k:
    def test_cohort_batched_grid_at_100k(self):
        """The kernel raw-speed push: 100k hosts in seconds, not minutes.

        Cohort-batched host loops with one batched placement call per
        round run the full placement storm — 100k hosts × 25k data items
        × replica 4, one multiplexed per-host heartbeat stream — at ≥5×
        the seed's ~10k events/s.
        """
        if quick_scale():
            n_hosts, n_data = 10_000, 2_500
        else:
            n_hosts, n_data = 100_000, 25_000
        metrics = run_scale_grid_100k(n_hosts=n_hosts, n_data=n_data)
        emit("Scale grid 100k", format_table([
            {k: metrics[k] for k in (
                "n_hosts", "n_data", "placed", "downloaded",
                "heartbeats", "processed_events")}
        ]))

        checks = shape_check("scale grid 100k")
        checks.is_true("every datum fully replicated",
                       metrics["placed"] == n_data)
        checks.is_true("downloads match placements",
                       metrics["downloaded"] == n_data * metrics["replica"])
        checks.is_true("one flow per download",
                       metrics["completed_flows"] == metrics["downloaded"])
        # The heartbeat multiplexing must preserve the per-host timer
        # density, not batch it away.
        checks.is_true("timer-heavy event mix",
                       metrics["heartbeats"]
                       >= metrics["processed_events"] * 0.5)
        # How fast it goes is not asked here: this run is perfbench's
        # ``storm-100k`` workload, judged there against its bound.
        checks.verify()


class TestScaleGrid300k:
    def test_300k_tier_with_fast_defaults(self):
        """The 300k-host tier: the 100k grid at 3× the sizes, ~3M events."""
        if quick_scale():
            n_hosts, n_data = 30_000, 7_500
        else:
            n_hosts, n_data = 300_000, 75_000
        metrics = run_scale_grid_300k(n_hosts=n_hosts, n_data=n_data)
        emit("Scale grid 300k", format_table([
            {k: metrics[k] for k in (
                "n_hosts", "n_data", "placed", "downloaded",
                "heartbeats", "processed_events")}
        ]))

        checks = shape_check("scale grid 300k")
        checks.is_true("every datum fully replicated",
                       metrics["placed"] == n_data)
        checks.is_true("downloads match placements",
                       metrics["downloaded"] == n_data * metrics["replica"])
        checks.is_true("one flow per download",
                       metrics["completed_flows"] == metrics["downloaded"])
        checks.is_true("timer-heavy event mix",
                       metrics["heartbeats"]
                       >= metrics["processed_events"] * 0.5)
        checks.verify()


class TestFailureDetectorSweepCost:
    def test_sweep_examines_only_expiring_hosts(self):
        """The detector's sweep is O(newly-dead), not O(all hosts).

        With n hosts heartbeating every period and the sweep running twice
        per period, the seed implementation scanned all n hosts on every
        sweep.  The expiry heap examines a host only when its recorded
        deadline passes — at most once per timeout interval while it lives
        — so total examinations stay well under sweeps × n, while the dead
        hosts are still declared exactly once.
        """
        n = 300 if quick_scale() else 1000
        env = Environment()
        detector = FailureDetector(env, heartbeat_period_s=1.0,
                                   timeout_multiplier=3.0)
        names = [f"h{i:04d}" for i in range(n)]
        crash_after = 8          # half the hosts stop heartbeating here
        rounds = 20              # survivors keep beating until the horizon

        def beats():
            for r in range(rounds):
                alive = names if r < crash_after else names[: n // 2]
                for name in alive:
                    detector.heartbeat(name)
                yield env.timeout(1.0)

        dead_declared = []
        detector.on_failure(dead_declared.append)
        env.process(beats())
        detector.start()
        horizon = env.timeout(rounds - 2.0)
        env.run(until=horizon)

        checks = shape_check("failure-detector sweep cost")
        checks.is_true("survivors still alive",
                       all(detector.is_alive(nm) for nm in names[: n // 2]))
        checks.is_true("crashed half declared dead exactly once",
                       sorted(dead_declared) == names[n // 2:])
        naive_examinations = detector.sweeps * n
        checks.is_true("sweeps actually ran",
                       detector.sweeps
                       >= (rounds - 2) / detector.sweep_period_s - 2)
        # Micro-assert: the heap examines each alive host ~once per timeout
        # (3 s) instead of once per sweep (0.5 s) — ≥4× under the naive
        # scan even with the one-off burst of the crashed half.
        checks.is_true(
            "sweep work ≪ sweeps × hosts",
            detector.sweep_examined <= naive_examinations / 4)
        checks.verify()
        emit("Failure-detector sweep cost (%d hosts)" % n, format_table([{
            "sweeps": detector.sweeps,
            "sweep_examined": detector.sweep_examined,
            "naive_examinations": naive_examinations,
            "reduction_x": naive_examinations
            / max(detector.sweep_examined, 1),
        }]))
