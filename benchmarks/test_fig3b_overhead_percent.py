"""Figure 3b — overhead of BitDew+FTP over FTP alone, in percent.

Paper: the relative overhead is strongest for small files distributed to a
small number of nodes (~16-18 % at 10 MB / 10 nodes) — dominated by the
DC/DR/DT round trips and the completion-detection granularity — and drops to
a few percent for large transfers, where only the monitoring traffic's
bandwidth share remains.
"""

from benchmarks.conftest import emit, run_once, sizes
from repro.bench.reporting import format_table, shape_check
from repro.bench.transfer import run_fig3bc


def test_fig3b_overhead_percent(benchmark):
    grid = sizes("fig3bc")
    sizes_mb, nodes = grid["sizes_mb"], grid["node_counts"]
    rows = run_once(benchmark, run_fig3bc, **grid)

    emit("Figure 3b — BitDew overhead over FTP alone (percent)",
         format_table([{k: r[k] for k in
                        ("size_mb", "n_nodes", "ftp_alone_s", "bitdew_ftp_s",
                         "overhead_pct")} for r in rows]))

    def overhead_pct(size, n):
        for row in rows:
            if row["size_mb"] == size and row["n_nodes"] == n:
                return row["overhead_pct"]
        raise KeyError((size, n))

    small, big = min(sizes_mb), max(sizes_mb)
    few, many = min(nodes), max(nodes)

    checks = shape_check("figure 3b")
    checks.is_true("overhead is non-negative everywhere",
                   all(r["overhead_pct"] >= -1e-6 for r in rows))
    checks.within(
        f"overhead for the small file on few nodes is in the paper's band",
        overhead_pct(small, few), 5.0, 30.0)
    checks.is_true(
        "relative overhead shrinks as the file grows",
        overhead_pct(big, few) < overhead_pct(small, few))
    checks.ratio_at_most(
        "large transfers keep the overhead below ~10 %",
        overhead_pct(big, many), 10.0)
    checks.verify()
