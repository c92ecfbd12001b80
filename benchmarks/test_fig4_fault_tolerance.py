"""Figure 4 — fault-tolerance scenario on DSL-Lab.

Paper: a datum with ``replica = 5, fault tolerance = true, protocol = ftp``
is kept at five live replicas while one owner is killed and one fresh host
arrives every 20 seconds.  The Gantt chart shows, for each arriving host, a
~3 second wait (the failure detector's timeout is three 1-second heartbeats)
followed by the download, whose bandwidth varies widely across the ADSL
lines (53-492 KB/s).
"""

from benchmarks.conftest import emit, run_once
from repro.bench.fault import run_fig4
from repro.bench.reporting import format_table, shape_check


def test_fig4_fault_tolerance(benchmark):
    result = run_once(benchmark, run_fig4, size_mb=5.0, replica=5,
                      n_initial=5, n_spare=5, crash_interval_s=20.0,
                      heartbeat_period_s=1.0, timeout_multiplier=3.0)

    emit("Figure 4 — fault-tolerance timeline (replacement hosts)",
         format_table([
             {"host": r["host"], "wait_s": r["wait_s"],
              "download_s": r["download_s"],
              "bandwidth_kbps": r["bandwidth_kbps"]}
             for r in result["rows"]]))

    checks = shape_check("figure 4")
    checks.is_true("five crashes were injected", result["crashes"] == 5)
    checks.is_true("five replacement hosts joined", result["joins"] == 5)
    checks.is_true("the replica level is restored to the requested 5",
                   result["live_replicas"] == result["requested_replicas"])
    replacements = result["replacement_rows"]
    checks.is_true("every replacement host received the datum",
                   len(replacements) == 5)
    for row in replacements:
        checks.within(
            f"{row['host']}: wait dominated by the 3 s failure-detection timeout",
            row["wait_s"], result["timeout_s"] - 1.0, result["timeout_s"] + 4.0)
    bandwidths = [r["bandwidth_kbps"] for r in result["rows"]]
    checks.within("slowest download bandwidth in the ADSL band (paper: 53 KB/s)",
                  min(bandwidths), 20.0, 300.0)
    checks.within("fastest download bandwidth in the ADSL band (paper: 492 KB/s)",
                  max(bandwidths), 150.0, 700.0)
    checks.ratio_at_least("bandwidth heterogeneity across ADSL lines",
                          max(bandwidths) / min(bandwidths), 1.5)
    checks.verify()
