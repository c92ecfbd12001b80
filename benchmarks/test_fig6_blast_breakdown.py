"""Figure 6 — breakdown of the BLAST execution time per cluster.

Paper: on 400 nodes spread over the four Grid'5000 clusters, most of the
total time is spent transferring data; switching the shared-file distribution
from FTP to BitTorrent shrinks the transfer component by roughly an order of
magnitude on every cluster, while unzip and execution times are unchanged.
"""

from benchmarks.conftest import emit, run_once, sizes
from repro.bench.blast import run_fig6
from repro.bench.reporting import format_table, shape_check


def test_fig6_blast_breakdown(benchmark):
    grid = sizes("fig6")
    rows = run_once(benchmark, run_fig6, **grid)

    emit("Figure 6 — per-cluster breakdown (s): transfer / unzip / execution",
         format_table(rows,
                      columns=["protocol", "cluster", "transfer_s", "unzip_s",
                               "execution_s", "tasks"]))

    def mean_row(protocol):
        for row in rows:
            if row["protocol"] == protocol and row["cluster"] == "mean":
                return row
        raise KeyError(protocol)

    ftp_mean = mean_row("ftp")
    bt_mean = mean_row("bittorrent")

    checks = shape_check("figure 6")
    clusters = {r["cluster"] for r in rows if r["cluster"] != "mean"}
    checks.is_true("all four clusters are represented",
                   clusters == {"gdx", "grelon", "grillon", "sagittaire"})
    checks.is_true("transfer dominates the FTP breakdown",
                   ftp_mean["transfer_s"] > ftp_mean["execution_s"])
    checks.ratio_at_least(
        "BitTorrent shrinks mean transfer time by a large factor "
        "(paper: ~10x at 400 nodes)",
        ftp_mean["transfer_s"] / max(bt_mean["transfer_s"], 1e-9),
        7.0 if grid["total_nodes"] >= 400 else 4.0)
    checks.ratio_at_most(
        "execution time is essentially protocol-independent",
        abs(ftp_mean["execution_s"] - bt_mean["execution_s"])
        / max(ftp_mean["execution_s"], 1e-9),
        0.15)
    checks.ratio_at_most(
        "unzip time is essentially protocol-independent",
        abs(ftp_mean["unzip_s"] - bt_mean["unzip_s"])
        / max(ftp_mean["unzip_s"], 1e-9),
        0.15)
    for protocol in ("ftp", "bittorrent"):
        per_cluster = {r["cluster"]: r for r in rows
                       if r["protocol"] == protocol and r["cluster"] != "mean"}
        if {"grelon", "sagittaire"} <= set(per_cluster):
            checks.is_true(
                f"{protocol}: slower CPUs (grelon) compute longer than faster "
                "ones (sagittaire)",
                per_cluster["grelon"]["execution_s"]
                > per_cluster["sagittaire"]["execution_s"])
    checks.verify()
