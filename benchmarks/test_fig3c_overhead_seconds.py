"""Figure 3c — overhead of BitDew+FTP over FTP alone, in seconds.

Paper: the absolute overhead grows with the file size and with the number of
downloading nodes (tens of seconds for 500 MB to 250 nodes), because the
dominant term is the bandwidth consumed by the BitDew monitoring protocol
while the transfers are in flight.
"""

from benchmarks.conftest import emit, run_once, sizes
from repro.bench.reporting import format_table, shape_check
from repro.bench.transfer import run_fig3bc


def test_fig3c_overhead_seconds(benchmark):
    grid = sizes("fig3bc")
    sizes_mb, nodes = grid["sizes_mb"], grid["node_counts"]
    rows = run_once(benchmark, run_fig3bc, **grid)

    emit("Figure 3c — BitDew overhead over FTP alone (seconds)",
         format_table([{k: r[k] for k in
                        ("size_mb", "n_nodes", "ftp_alone_s", "bitdew_ftp_s",
                         "overhead_s")} for r in rows]))

    def overhead(size, n):
        for row in rows:
            if row["size_mb"] == size and row["n_nodes"] == n:
                return row["overhead_s"]
        raise KeyError((size, n))

    small, big = min(sizes_mb), max(sizes_mb)
    few, many = min(nodes), max(nodes)

    checks = shape_check("figure 3c")
    checks.is_true("overhead is non-negative everywhere",
                   all(r["overhead_s"] >= -1e-6 for r in rows))
    checks.is_true(
        "absolute overhead grows with the file size",
        overhead(big, many) > overhead(small, many))
    checks.is_true(
        "absolute overhead grows with the number of nodes",
        overhead(big, many) > overhead(big, few))
    checks.is_true(
        "largest configuration pays seconds to tens of seconds",
        1.0 <= overhead(big, many) <= 120.0)
    checks.verify()
