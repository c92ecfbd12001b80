"""Table 1 — hardware configuration of the Grid testbed.

Sanity benchmark: the topology model reproduces the four clusters of Table 1
(gdx, grelon, grillon, sagittaire) with the paper's CPU counts, locations and
memory; building Figure 6's testbed at its ``REPRO_SIZES`` size (400 nodes
at the paper's) is timed.
"""

from benchmarks.conftest import emit, run_once, sizes
from repro.bench.micro import table1_testbed
from repro.bench.reporting import format_table, shape_check
from repro.net.topology import grid5000_testbed
from repro.sim.kernel import Environment


def test_table1_testbed(benchmark):
    total_nodes = sizes("fig6")["total_nodes"]

    def experiment():
        rows = table1_testbed()
        env = Environment()
        topo = grid5000_testbed(env, total_nodes=total_nodes)
        return rows, topo

    rows, topo = run_once(benchmark, experiment)
    emit("Table 1 — Grid testbed configuration", format_table(rows))

    checks = shape_check("table 1")
    by_cluster = {r["cluster"]: r for r in rows}
    checks.is_true("four clusters", len(rows) == 4)
    checks.is_true("gdx is the largest cluster",
                   by_cluster["gdx"]["cpus"] == max(r["cpus"] for r in rows))
    checks.is_true("total CPUs match the paper (312+120+47+65)",
                   sum(r["cpus"] for r in rows) == 544)
    checks.is_true("every cluster provides 2 GB nodes",
                   all(r["memory_mb"] == 2048 for r in rows))
    checks.is_true("topology builds the requested node count",
                   abs(len(topo.worker_hosts) - total_nodes) <= 4)
    checks.is_true("four clusters materialised in the topology",
                   len({h.cluster for h in topo.worker_hosts}) == 4)
    checks.verify()
