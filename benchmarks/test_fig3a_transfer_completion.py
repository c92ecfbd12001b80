"""Figure 3a — file distribution completion time, FTP vs BitTorrent.

Paper: BitDew replicates a 10..500 MB file to 10..250 nodes; BitTorrent
clearly outperforms FTP once the file is large (> 20 MB) and the node count
grows (> 10), because the FTP server's uplink is divided among the
downloaders while the swarm's aggregate capacity grows with its size, making
BitTorrent's completion time nearly flat in the number of nodes.
"""

from benchmarks.conftest import emit, run_once, sizes
from repro.bench.reporting import format_table, shape_check
from repro.bench.transfer import run_fig3a


def test_fig3a_transfer_completion(benchmark):
    grid = sizes("fig3a")
    sizes_mb, nodes = grid["sizes_mb"], grid["node_counts"]
    rows = run_once(benchmark, run_fig3a, **grid)

    emit("Figure 3a — completion time (s) of BitDew distribution",
         format_table([{k: r[k] for k in
                        ("protocol", "size_mb", "n_nodes", "completion_s")}
                       for r in rows]))

    def completion(protocol, size, n):
        for row in rows:
            if (row["protocol"] == protocol and row["size_mb"] == size
                    and row["n_nodes"] == n):
                return row["completion_s"]
        raise KeyError((protocol, size, n))

    big_size = max(sizes_mb)
    small_size = min(sizes_mb)
    many = max(nodes)
    few = min(nodes)

    checks = shape_check("figure 3a")
    checks.is_true("every node completed in every configuration",
                   all(r["completed_nodes"] == r["n_nodes"] for r in rows))
    checks.is_true(
        f"BitTorrent wins for {big_size:.0f} MB on {many} nodes",
        completion("bittorrent", big_size, many) < completion("ftp", big_size, many))
    checks.is_true(
        f"FTP wins for the small file ({small_size:.0f} MB) on {few} nodes",
        completion("ftp", small_size, few) < completion("bittorrent", small_size, few))
    checks.ratio_at_least(
        "FTP completion grows with the node count (server bottleneck)",
        completion("ftp", big_size, many) / completion("ftp", big_size, few),
        0.5 * many / few)
    checks.ratio_at_most(
        "BitTorrent completion stays nearly flat in the node count",
        completion("bittorrent", big_size, many)
        / completion("bittorrent", big_size, few),
        3.0)
    checks.ratio_at_least(
        "BitTorrent's advantage at scale is large (paper: several-fold)",
        completion("ftp", big_size, many) / completion("bittorrent", big_size, many),
        3.0)
    checks.verify()
