"""Figure 5 — BLAST master/worker total execution time vs number of workers.

Paper: with the 2.68 GB Genebase, distributing the shared data over FTP makes
the total time grow steeply with the worker count (the server uplink is the
bottleneck), while BitTorrent keeps it nearly flat; FTP is only competitive
for small worker counts (10-20).
"""

from benchmarks.conftest import emit, run_once, sizes
from repro.bench.blast import run_fig5
from repro.bench.reporting import format_table, shape_check


def test_fig5_blast_scaling(benchmark):
    grid = sizes("fig5")
    workers = grid["worker_counts"]
    rows = run_once(benchmark, run_fig5, **grid)

    emit("Figure 5 — BLAST total execution time (s)",
         format_table([{k: r[k] for k in
                        ("protocol", "n_workers", "makespan_s", "tasks_executed",
                         "results_collected")} for r in rows]))

    def makespan(protocol, n):
        for row in rows:
            if row["protocol"] == protocol and row["n_workers"] == n:
                return row["makespan_s"]
        raise KeyError((protocol, n))

    few, many = min(workers), max(workers)

    checks = shape_check("figure 5")
    checks.is_true("every submitted task produced a collected result",
                   all(r["results_collected"] == r["n_tasks"] for r in rows))
    checks.ratio_at_least(
        "FTP total time grows steeply with the worker count",
        makespan("ftp", many) / makespan("ftp", few), 2.0)
    checks.ratio_at_most(
        "BitTorrent total time stays nearly flat",
        makespan("bittorrent", many) / makespan("bittorrent", few), 1.6)
    checks.is_true(
        f"BitTorrent wins at {many} workers",
        makespan("bittorrent", many) < makespan("ftp", many))
    checks.ratio_at_most(
        f"FTP is competitive at {few} workers (paper: FTP better at 10-20)",
        makespan("ftp", few) / makespan("bittorrent", few), 1.2)
    checks.verify()
