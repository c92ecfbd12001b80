"""Table 3 — publishing (dataID, hostID) pairs: DDC (DHT) vs centralized DC.

Paper: 50 nodes publish 500 pairs each (25 000 pairs total); indexing them in
the DHT-backed Distributed Data Catalog takes ~108 s against ~7 s through the
centralized Data Catalog — the DDC is roughly 15x slower, which is the price
of decentralisation (and why the design keeps permanent copies in the DC and
only replica locations in the DDC, §3.4.1).
"""

from benchmarks.conftest import emit, run_once, sizes
from repro.bench.micro import run_table3
from repro.bench.reporting import format_table, shape_check


def test_table3_catalog_publish(benchmark):
    grid = sizes("table3")
    result = run_once(benchmark, run_table3, **grid)

    emit("Table 3 — catalog publish performance", format_table([
        {"catalog": "DDC (DHT)", "total_s": result["ddc_total_s"],
         "pairs_per_s": result["ddc_pairs_per_s"]},
        {"catalog": "DC (centralized)", "total_s": result["dc_total_s"],
         "pairs_per_s": result["dc_pairs_per_s"]},
        {"catalog": "slowdown (DDC/DC)", "total_s": result["slowdown_ratio"],
         "pairs_per_s": float("nan")},
    ]))

    checks = shape_check("table 3")
    checks.is_true("DDC is slower than DC",
                   result["ddc_total_s"] > result["dc_total_s"])
    checks.within("DDC/DC slowdown is roughly an order of magnitude "
                  "(paper: ~15x)", result["slowdown_ratio"], 5.0, 45.0)
    checks.is_true("DC sustains thousands of pairs per second",
                   result["dc_pairs_per_s"] > 1000.0)
    if (grid["n_nodes"], grid["pairs_per_node"]) == (50, 500):
        checks.within("DDC total time close to the paper's ~109 s",
                      result["ddc_total_s"], 60.0, 180.0)
        checks.within("DC total time close to the paper's ~7 s",
                      result["dc_total_s"], 3.0, 15.0)
    checks.verify()
