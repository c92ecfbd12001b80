"""Ablation — the DC/DDC split of §3.4.1.

The paper stores permanent-copy locators in the centralized Data Catalog and
replica locations in the DHT-backed Distributed Data Catalog.  This ablation
quantifies the trade-off behind that split: publishing through the DC is much
faster end-to-end, but concentrates every request on a single service, while
the DDC spreads the request load evenly over the participating nodes (and
survives node failures), which is what makes it suitable for the volatile
replica index.
"""

from benchmarks.conftest import emit, run_once, sizes
from repro.bench.micro import run_table3
from repro.bench.reporting import format_table, shape_check
from repro.dht.chord import ChordRing
from repro.dht.ddc import DistributedDataCatalog
from repro.sim.kernel import Environment
from repro.storage.persistence import new_auid


def _ddc_load_distribution(n_nodes: int, pairs_per_node: int):
    env = Environment()
    ddc = DistributedDataCatalog(env, ChordRing(replication=2))
    names = [f"node{i:03d}" for i in range(n_nodes)]
    for name in names:
        ddc.join(name)

    def publisher(name):
        for i in range(pairs_per_node):
            yield from ddc.publish(new_auid(f"{name}-{i}"), name, origin=name)

    processes = [env.process(publisher(name)) for name in names]
    env.run(until=env.all_of(processes))
    served = [ddc.node_of(name).requests_served for name in names]
    return served


def test_ablation_catalog_split(benchmark):
    grid = sizes("table3")
    n_nodes, pairs = grid["n_nodes"], max(20, grid["pairs_per_node"] // 5)

    def experiment():
        timing = run_table3(n_nodes=n_nodes, pairs_per_node=pairs)
        served = _ddc_load_distribution(n_nodes, pairs)
        return timing, served

    timing, served = run_once(benchmark, experiment)
    total_requests = sum(served)
    emit("Ablation — catalog placement (DC vs DDC)", format_table([
        {"metric": "DC total time (s)", "value": timing["dc_total_s"]},
        {"metric": "DDC total time (s)", "value": timing["ddc_total_s"]},
        {"metric": "DDC max node share of requests",
         "value": max(served) / total_requests},
        {"metric": "DC node share of requests (by construction)", "value": 1.0},
    ]))

    checks = shape_check("ablation: catalog split")
    checks.is_true("the centralized DC is faster end-to-end",
                   timing["dc_total_s"] < timing["ddc_total_s"])
    checks.ratio_at_most(
        "the DDC spreads the request load (no node serves more than 25%)",
        max(served) / total_requests, 0.25)
    checks.is_true("every DDC node served some requests",
                   min(served) > 0)
    checks.verify()
