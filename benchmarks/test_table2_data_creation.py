"""Table 2 — data slot creation rate (thousands of creations per second).

Paper values (thousands of dc/sec):

=============  ==============  ===========  ==============  ===========
channel        mysql/no-dbcp   mysql/dbcp   hsqldb/no-dbcp  hsqldb/dbcp
=============  ==============  ===========  ==============  ===========
local          0.25            1.9          3.2             4.3
RMI local      0.21            1.5          2.0             2.8
RMI remote     0.22            1.3          1.7             2.1
=============  ==============  ===========  ==============  ===========

The shape checks assert the orderings the paper draws conclusions from: the
embedded engine beats the networked one, connection pooling recovers most of
the gap, the RMI hop costs throughput, and a single remote pooled service
still sustains about two thousand creations per second.
"""

from benchmarks.conftest import emit, run_once, sizes
from repro.bench.micro import run_table2
from repro.bench.reporting import format_table, shape_check


def test_table2_data_creation(benchmark):
    table = run_once(benchmark, run_table2, **sizes("table2"))

    rows = []
    for channel, cells in table.items():
        row = {"channel": channel}
        row.update({k: round(v, 2) for k, v in cells.items()})
        rows.append(row)
    emit("Table 2 — data creations/sec (thousands)", format_table(rows))

    checks = shape_check("table 2")
    for channel, cells in table.items():
        checks.is_true(
            f"{channel}: hsqldb/dbcp fastest",
            cells["hsqldb/dbcp"] == max(cells.values()))
        checks.is_true(
            f"{channel}: mysql/no-dbcp slowest",
            cells["mysql/no-dbcp"] == min(cells.values()))
        checks.ratio_at_least(
            f"{channel}: pooling speeds MySQL up",
            cells["mysql/dbcp"] / cells["mysql/no-dbcp"], 3.0)
    local = table["local"]
    remote = table["rmi remote"]
    checks.is_true("RMI remote slower than local (hsqldb/dbcp)",
                   remote["hsqldb/dbcp"] < local["hsqldb/dbcp"])
    checks.within("remote pooled embedded rate ~2k dc/sec",
                  remote["hsqldb/dbcp"], 1.5, 3.0)
    checks.within("local pooled embedded rate ~4.3k dc/sec",
                  local["hsqldb/dbcp"], 3.0, 6.0)
    checks.within("local MySQL without pool ~0.25k dc/sec",
                  local["mysql/no-dbcp"], 0.15, 0.4)
    checks.ratio_at_least("embedded vs networked gain (paper: ~61% faster)",
                          local["hsqldb/dbcp"] / local["mysql/dbcp"], 1.3)
    checks.verify()
