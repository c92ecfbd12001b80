#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation section.

Runs the experiment harness behind ``benchmarks/`` (Tables 1-3, Figures 3a-c,
4, 5, 6) and prints the same rows/series the paper reports.  By default each
scenario runs at its function defaults (well under a minute); ``--paper-scale``
runs the ``paper`` sizes each scenario declares, the paper's full grids
(Figure 5 up to 275 workers; much longer).  Each harness call is a registered
scenario: the same runs are available one-by-one through ``python -m repro
run <scenario>`` (see ``docs/EXPERIMENTS.md`` for the catalog).

Run with::

    python examples/reproduce_paper.py
"""

import argparse
import time

from repro.bench import (
    run_fig3a,
    run_fig3bc,
    run_fig4,
    run_fig5,
    run_fig6,
    run_table2,
    run_table3,
    table1_testbed,
)
from repro.bench.reporting import format_table
from repro.experiments import default_registry


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper-scale", action="store_true",
                        help="the paper's full grids (slow)")
    args = parser.parse_args()

    def sizes(scenario: str) -> dict:
        if not args.paper_scale:
            return {}
        return default_registry().get(scenario).sizes("paper")

    start = time.time()

    banner("Table 1 — Grid testbed configuration")
    print(format_table(table1_testbed()))

    banner("Table 2 — data creations/sec (thousands)")
    table2 = run_table2(**sizes("table2"))
    print(format_table([{"channel": channel, **{k: round(v, 2) for k, v in row.items()}}
                        for channel, row in table2.items()]))

    banner("Table 3 — catalog publish: DDC (DHT) vs DC")
    table3 = run_table3(**sizes("table3"))
    print(format_table([{k: v for k, v in table3.items()}]))

    banner("Figure 3a — distribution completion time (s), FTP vs BitTorrent")
    fig3a = run_fig3a(**sizes("fig3a"))
    print(format_table([{k: r[k] for k in ("protocol", "size_mb", "n_nodes",
                                           "completion_s")} for r in fig3a]))

    banner("Figures 3b/3c — BitDew+FTP overhead over FTP alone")
    fig3bc = run_fig3bc(**sizes("fig3bc"))
    print(format_table(fig3bc))

    banner("Figure 4 — fault-tolerance scenario (DSL-Lab)")
    fig4 = run_fig4()
    print(format_table([{k: r[k] for k in ("host", "replacement", "wait_s",
                                           "download_s", "bandwidth_kbps")}
                        for r in fig4["rows"]]))
    print(f"live replicas: {fig4['live_replicas']} / {fig4['requested_replicas']}; "
          f"failure-detection timeout: {fig4['timeout_s']} s")

    banner("Figure 5 — BLAST total execution time vs number of workers")
    fig5 = run_fig5(**sizes("fig5"))
    print(format_table([{k: r[k] for k in ("protocol", "n_workers", "makespan_s",
                                           "results_collected")} for r in fig5]))

    banner("Figure 6 — BLAST breakdown per cluster (transfer / unzip / execution)")
    fig6 = run_fig6(**sizes("fig6"))
    print(format_table(fig6, columns=["protocol", "cluster", "transfer_s",
                                      "unzip_s", "execution_s", "tasks"]))

    print(f"\nAll experiments regenerated in {time.time() - start:.0f} s wall clock.")


if __name__ == "__main__":
    main()
