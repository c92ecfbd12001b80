"""Federation benchmarks: cross-domain flash crowd, WAN healing, sovereignty.

Beyond the paper: `repro.federation` peers several sovereign BitDew
domains over shared-capacity WAN links.  These tests pin the three claims
the layer makes — scheduled replication amortises the WAN so a federated
flash crowd beats per-worker remote fetches by ≥2×; a partition in any
replication phase heals exactly-once; trust + visibility policy places
copies exactly where it should.

Everything is pure simulation: every asserted number is deterministic.
``REPRO_SIZES`` sizes the flash crowd (``benchmarks/conftest.py``).
"""

from __future__ import annotations

from repro.bench.federation import (run_federation_flash_crowd,
                                    run_federation_partition_heal,
                                    run_federation_sovereignty)
from repro.bench.reporting import format_table, shape_check

from benchmarks.conftest import emit, sizes


class TestFederationFlashCrowd:
    def test_wan_replication_beats_per_worker_fetches(self):
        """Cross-domain flash crowd: federation on vs single-domain baseline.

        Same domains, same WAN, same staggered crowd; only the mechanism
        differs.  Federated: scheduled replication lands ONE copy per peer
        domain and the crowd pulls from its local repository.  Baseline:
        every remote worker fetches through the home gateway, serialising
        on the shared WAN pipes.
        """
        metrics = run_federation_flash_crowd(
            **sizes("federation-flash-crowd"))
        federated = metrics["federated"]
        baseline = metrics["baseline"]
        emit("Federation flash crowd (%d domains x %d workers)"
             % (metrics["n_domains"], metrics["workers_per_domain"]),
             format_table([
                 {"arm": "federated", "makespan_s": federated["makespan_s"],
                  "wan_kb": federated["wan_kb"]},
                 {"arm": "baseline", "makespan_s": baseline["makespan_s"],
                  "wan_kb": baseline["wan_kb"]},
             ]))

        checks = shape_check("federation flash crowd")
        checks.is_true("every worker served (federated)",
                       federated["completed_workers"] == metrics["n_workers"])
        checks.is_true("every worker served (baseline)",
                       baseline["completed_workers"] == metrics["n_workers"])
        checks.is_true(
            "replication sent one WAN copy per peer domain",
            federated["replication"]["exported_copies"]
            == metrics["n_domains"] - 1)
        checks.is_true("federation moved fewer WAN bytes",
                       federated["wan_kb"] < baseline["wan_kb"])
        checks.is_true("no sovereignty leak in either arm",
                       federated["leaks"] == 0 and baseline["leaks"] == 0)
        checks.ratio_at_least(
            "federated crowd throughput vs per-worker WAN fetches",
            metrics["throughput_x"], 2.0)
        checks.verify()


class TestFederationPartitionHeal:
    def test_partition_heals_exactly_once(self):
        """The WAN dies mid-replication and heals; catch-up is exact."""
        metrics = run_federation_partition_heal()
        emit("Federation partition/heal", format_table([
            {k: metrics[k] for k in (
                "imported_before_partition", "copies_failed",
                "completed_at_s", "catch_up_s", "lost", "duplicated",
                "leaks")}
        ]))

        checks = shape_check("federation partition heal")
        checks.is_true("the partition actually bit",
                       metrics["copies_failed"] > 0)
        checks.is_true("replication completed after healing",
                       metrics["completed_at_s"] is not None)
        checks.is_true("no datum lost", metrics["lost"] == 0)
        checks.is_true("no datum double-imported",
                       metrics["duplicated"] == 0
                       and metrics["imports_accepted"] == metrics["n_data"])
        checks.is_true("pinned data never crossed the WAN",
                       metrics["exports_blocked"] == metrics["n_private"])
        checks.is_true("no sovereignty leak", metrics["leaks"] == 0)
        checks.verify()


class TestFederationSovereignty:
    def test_policy_constrained_placement(self):
        """Allowlist trust + visibility yields exactly the allowed copies."""
        metrics = run_federation_sovereignty()
        emit("Federation sovereignty", format_table([
            {k: metrics[k] for k in (
                "beta_search_rows", "gamma_search_rows", "exported_copies",
                "exports_blocked", "leaks")}
        ]))

        checks = shape_check("federation sovereignty")
        checks.is_true("allowlisted peer sees exactly the public data",
                       metrics["beta_search_rows"] == metrics["n_public"])
        checks.is_true("excluded peer sees nothing",
                       metrics["gamma_search_rows"] == 0)
        checks.is_true("public data replicated to the allowlisted peer only",
                       metrics["beta_holdings"]
                       == {"private": 0, "public": metrics["n_public"],
                           "unlisted": 0})
        checks.is_true("excluded peer holds nothing",
                       all(count == 0
                           for count in metrics["gamma_holdings"].values()))
        checks.is_true("unlisted fetchable by reference for the allowlisted "
                       "peer only",
                       metrics["beta_fetch_unlisted_ok"] is True
                       and metrics["gamma_fetch_unlisted_ok"] is False)
        checks.is_true("private denied to everyone",
                       metrics["beta_fetch_private_ok"] is False
                       and metrics["gamma_fetch_private_ok"] is False)
        checks.is_true("no sovereignty leak", metrics["leaks"] == 0)
        checks.verify()
