"""The built-in scenario catalog: every experiment this repo can run.

One registered scenario per table/figure of the paper (the implementations
live next to their harness modules in :mod:`repro.bench`), plus the BENCH
scale runs and the beyond-the-paper scenarios of
:mod:`repro.experiments.extra`.  ``docs/EXPERIMENTS.md`` documents the full
catalog with paper references and CLI invocations.

:func:`build_registry` constructs a fresh registry holding the catalog; the
process-wide instance is served by
:func:`repro.experiments.runner.default_registry`.
"""

from __future__ import annotations

from repro.experiments.registry import ScenarioRegistry

# The bench modules import only repro.experiments.entry at module level, so
# importing their private implementations here is cycle-free.
from repro.bench.blast import _run_blast_once, _run_fig5, _run_fig6
from repro.bench.elastic import _run_fabric_autoscale, _run_fabric_rebalance
from repro.bench.fabric import _run_fabric_failover, _run_fabric_scale
from repro.bench.federation import (_run_federation_flash_crowd,
                                    _run_federation_partition_heal,
                                    _run_federation_sovereignty)
from repro.bench.fault import _run_fig4
from repro.bench.micro import (
    _run_table2,
    _run_table2_cell,
    _run_table3,
    _table1_testbed,
)
from repro.bench.scale import (
    _run_completion_curve,
    _run_scale_grid,
    _run_scale_grid_100k,
    _run_scale_grid_300k,
    _run_sync_storm,
)
from repro.bench.sweep import _run_sweep_parallel
from repro.bench.transfer import (
    _run_distribution,
    _run_fig3a,
    _run_fig3bc,
    _run_ftp_alone,
)
from repro.experiments.extra import (
    run_catalog_load,
    run_fig4_weibull,
    run_flash_crowd,
    run_mapreduce_churn,
)

__all__ = ["build_registry"]

#: wall-clock keys of the scale harnesses: real, not simulated, time
#: (events_per_sec is wall-clock-derived throughput, equally volatile).
_WALL_KEYS = ("wall_s", "setup_wall_s", "storm_walls_s", "events_per_sec")


def build_registry() -> ScenarioRegistry:
    """A fresh registry populated with the built-in scenario catalog."""
    registry = ScenarioRegistry()

    # ---------------------------------------------------------------- paper
    registry.register(
        "table1", _table1_testbed,
        title="Testbed hardware configuration",
        paper_ref="Table 1 (§4.1)", group="paper", tags=("micro",))
    registry.register(
        "table2", _run_table2,
        title="Data-slot creation rate, all 12 engine/pool/channel cells",
        paper_ref="Table 2 (§4.2)", group="paper", tags=("micro",))
    registry.register(
        "table2-cell", _run_table2_cell,
        title="One cell of the data-slot creation-rate grid",
        paper_ref="Table 2 (§4.2)", group="paper", tags=("micro",))
    registry.register(
        "table3", _run_table3,
        title="Publish rate: Distributed Data Catalog vs centralized DC",
        paper_ref="Table 3 (§4.2, §3.4.1)", group="paper", tags=("micro", "dht"))
    registry.register(
        "ftp-alone", _run_ftp_alone,
        title="Baseline file distribution with raw FTP, no BitDew runtime",
        paper_ref="Figure 3b/3c baseline (§4.3)", group="paper",
        tags=("transfer",))
    registry.register(
        "distribution", _run_distribution,
        title="One BitDew-driven file distribution (any protocol)",
        paper_ref="Figure 3 building block (§4.3)", group="paper",
        tags=("transfer",))
    registry.register(
        "fig3a", _run_fig3a,
        title="Distribution completion-time grid, FTP vs BitTorrent",
        paper_ref="Figure 3a (§4.3)", group="paper", tags=("transfer",))
    registry.register(
        "fig3bc", _run_fig3bc,
        title="BitDew+FTP vs FTP-alone overhead (percent and seconds)",
        paper_ref="Figures 3b-3c (§4.3)", group="paper", tags=("transfer",))
    registry.register(
        "fig4", _run_fig4,
        title="Fault-tolerant replicated storage under scripted churn",
        paper_ref="Figure 4 (§4.4)", group="paper", tags=("churn",))
    registry.register(
        "blast", _run_blast_once,
        title="One BLAST master/worker run",
        paper_ref="Figures 5-6 building block (§5)", group="paper",
        tags=("apps",), volatile_keys=("report",))
    registry.register(
        "fig5", _run_fig5,
        title="BLAST total execution time vs worker count, per protocol",
        paper_ref="Figure 5 (§5)", group="paper", tags=("apps",),
        volatile_keys=("report",))
    registry.register(
        "fig6", _run_fig6,
        title="BLAST per-cluster breakdown (transfer/unzip/execution)",
        paper_ref="Figure 6 (§5)", group="paper", tags=("apps",),
        volatile_keys=("report",))

    # ---------------------------------------------------------------- scale
    registry.register(
        "sync-storm", _run_sync_storm,
        title="N simultaneous downloads from one server, repeated rounds",
        paper_ref="beyond the paper (BENCH trajectory)", group="scale",
        tags=("bench",), volatile_keys=_WALL_KEYS)
    registry.register(
        "completion-curve", _run_completion_curve,
        title="Completion time vs worker count past the paper's grid",
        paper_ref="beyond the paper (Figure 3a shape at scale)",
        group="scale", tags=("bench",), volatile_keys=_WALL_KEYS)
    registry.register(
        "scale-grid", _run_scale_grid,
        title="Full runtime at ≥1000 hosts × ≥5000 data items",
        paper_ref="beyond the paper (BENCH trajectory)", group="scale",
        tags=("bench",), volatile_keys=_WALL_KEYS)
    registry.register(
        "scale-grid-100k", _run_scale_grid_100k,
        title="Cohort-batched placement storm at ≥100k hosts",
        paper_ref="beyond the paper (BENCH trajectory)", group="scale",
        tags=("bench", "kernel"),
        volatile_keys=_WALL_KEYS + ("run_wall_s",))
    registry.register(
        "scale-grid-300k", _run_scale_grid_300k,
        title="Batched-placement storm at 300k hosts",
        paper_ref="beyond the paper (BENCH trajectory)", group="scale",
        tags=("bench", "kernel"),
        volatile_keys=_WALL_KEYS + ("run_wall_s",))
    registry.register(
        "fabric-scale", _run_fabric_scale,
        title="Flash-crowd sync storm: centralized container vs sharded fabric",
        paper_ref="beyond the paper (distributed services, §3.4; BENCH trajectory)",
        group="scale", tags=("bench", "fabric"))
    registry.register(
        "fabric-failover", _run_fabric_failover,
        title="Service-host crash: heartbeat-driven shard failover and recovery",
        paper_ref="beyond the paper (service architecture, §3.1/§3.4)",
        group="scale", tags=("bench", "fabric", "churn"))
    registry.register(
        "fabric-rebalance", _run_fabric_rebalance,
        title="Live shard split+merge under traffic: zero-loss key migration",
        paper_ref="beyond the paper (service architecture, §3.1/§3.4)",
        group="scale", tags=("bench", "fabric"))
    registry.register(
        "fabric-autoscale", _run_fabric_autoscale,
        title="SLO-driven autoscaler on a diurnal trace: fixed vs elastic shards",
        paper_ref="beyond the paper (service architecture, §3.1/§3.4)",
        group="scale", tags=("bench", "fabric"))
    registry.register(
        "federation-flash-crowd", _run_federation_flash_crowd,
        title="Cross-domain flash crowd: WAN replication vs per-worker fetches",
        paper_ref="beyond the paper (multi-cluster deployments, §5; BENCH trajectory)",
        group="scale", tags=("bench", "federation"))
    registry.register(
        "federation-partition-heal", _run_federation_partition_heal,
        title="WAN partition mid-replication: exactly-once catch-up after healing",
        paper_ref="beyond the paper (fault tolerance, §3.5)",
        group="scale", tags=("bench", "federation", "churn"))
    registry.register(
        "federation-sovereignty", _run_federation_sovereignty,
        title="Trust allowlists + visibility: policy-constrained placement",
        paper_ref="beyond the paper (data attributes, §3.2)",
        group="scale", tags=("bench", "federation"))
    registry.register(
        "sweep-parallel", _run_sweep_parallel,
        title="Sweep executor throughput: serial vs process pool vs cache",
        paper_ref="beyond the paper (BENCH trajectory)", group="scale",
        tags=("bench", "sweep"),
        volatile_keys=("serial_wall_s", "parallel_wall_s", "warm_wall_s",
                       "speedup", "warm_speedup"))

    # ---------------------------------------------------------------- extra
    registry.register(
        "flash-crowd", run_flash_crowd,
        title="A flash crowd of late joiners hits a seeded distribution",
        paper_ref="beyond the paper (motivated by §2.2)", group="extra",
        tags=("transfer", "churn"))
    registry.register(
        "fig4-weibull", run_fig4_weibull,
        title="Figure 4's replicated storage under Weibull churn traces",
        paper_ref="beyond the paper (Figure 4 setup, §4.4)", group="extra",
        tags=("churn",))
    registry.register(
        "catalog-load", run_catalog_load,
        title="DDC vs centralized catalog under mixed publish+search load",
        paper_ref="beyond the paper (Table 3 setup, §3.4.1)", group="extra",
        tags=("micro", "dht"))
    registry.register(
        "mapreduce-churn", run_mapreduce_churn,
        title="MapReduce word count with mapper crashes mid-job",
        paper_ref="beyond the paper (conclusion / future work)",
        group="extra", tags=("apps", "churn"))

    return registry
