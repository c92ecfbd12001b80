"""Micro-benchmark harness: Table 1, Table 2 and Table 3.

* Table 1 — the testbed description (reproduced from the topology builder).
* Table 2 — data-slot creation rate (thousands of creations per second) for
  {MySQL-like, HsqlDB-like} x {with DBCP, without DBCP} x
  {local, RMI local, RMI remote}.
* Table 3 — publish rate into the Distributed Data Catalog (DHT) vs the
  centralized Data Catalog: 50 nodes each publishing 500
  (dataID, hostID) pairs; the paper reports the total time and notes the
  DDC is ~15x slower.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.data import Data
from repro.experiments.registry import scenario
from repro.dht.chord import ChordRing
from repro.dht.ddc import DistributedDataCatalog
from repro.net.rpc import ChannelKind, RpcChannel, RpcEndpoint
from repro.net.topology import GRID5000_CLUSTERS
from repro.services.data_catalog import DataCatalogService
from repro.sim.kernel import Environment
from repro.storage.database import (
    ConnectionPool,
    Database,
    EmbeddedSQLEngine,
    NetworkedSQLEngine,
)
from repro.storage.persistence import new_auid

__all__ = ["run_table2", "run_table2_cell", "run_table3", "table1_testbed"]


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

@scenario(
    "table1",
    title="Testbed hardware configuration",
    paper_ref="Table 1 (§4.1)",
    tags=("micro",))
def table1_testbed() -> List[Dict[str, object]]:
    """The hardware configuration rows of Table 1 (from the topology model)."""
    rows = []
    for name, spec in GRID5000_CLUSTERS.items():
        rows.append({
            "cluster": name,
            "cluster_type": spec["cluster_type"],
            "location": spec["location"],
            "cpus": spec["cpus"],
            "cpu_type": spec["cpu_type"],
            "frequency_ghz": spec["frequency_ghz"],
            "memory_mb": spec["memory_mb"],
        })
    return rows


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

_ENGINES = {
    "mysql": NetworkedSQLEngine,
    "hsqldb": EmbeddedSQLEngine,
}

_CHANNELS = {
    "local": ChannelKind.LOCAL,
    "rmi local": ChannelKind.RMI_LOCAL,
    "rmi remote": ChannelKind.RMI_REMOTE,
}


@scenario(
    "table2-cell",
    title="One cell of the data-slot creation-rate grid",
    paper_ref="Table 2 (§4.2)",
    tags=("micro",))
def run_table2_cell(engine: str = "hsqldb", pooled: bool = True,
                    channel: str = "rmi remote",
                    n_creations: int = 2000) -> float:
    """One cell of Table 2: thousands of data-slot creations per second.

    A client loop continuously creates data slots against the Data Catalog
    service; the result is the sustained creation rate.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected {sorted(_ENGINES)}")
    if channel not in _CHANNELS:
        raise ValueError(f"unknown channel {channel!r}; expected {sorted(_CHANNELS)}")
    if n_creations <= 0:
        raise ValueError("n_creations must be positive")

    env = Environment()
    engine_profile = _ENGINES[engine]()
    pool = ConnectionPool(env, engine_profile, size=8) if pooled else None
    database = Database(env, engine=engine_profile, pool=pool)
    catalog = DataCatalogService(database)
    endpoint = RpcEndpoint(catalog, name="DataCatalog")
    rpc = RpcChannel(env, _CHANNELS[channel])

    def client():
        for index in range(n_creations):
            data = Data(name=f"slot-{index:06d}", size_mb=0.001,
                        checksum=f"{index:032x}")
            yield from rpc.invoke(endpoint, "register_data", data)

    start = env.now
    process = env.process(client())
    env.run(until=process)
    elapsed = env.now - start
    if elapsed <= 0:
        return float("inf")
    return (n_creations / elapsed) / 1000.0


@scenario(
    "table2",
    title="Data-slot creation rate, all 12 engine/pool/channel cells",
    paper_ref="Table 2 (§4.2)",
    tags=("micro",))
def run_table2(n_creations: int = 2000) -> Dict[str, Dict[str, float]]:
    """All 12 cells of Table 2, keyed by channel then ``engine/pooling``."""
    table: Dict[str, Dict[str, float]] = {}
    for channel in _CHANNELS:
        row: Dict[str, float] = {}
        for engine in _ENGINES:
            for pooled in (False, True):
                label = f"{engine}/{'dbcp' if pooled else 'no-dbcp'}"
                row[label] = run_table2_cell.scenario_impl(
                    engine=engine, pooled=pooled, channel=channel,
                    n_creations=n_creations)
        table[channel] = row
    return table


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------

@scenario(
    "table3",
    title="Publish rate: Distributed Data Catalog vs centralized DC",
    paper_ref="Table 3 (§4.2, §3.4.1)",
    tags=("micro", "dht"))
def run_table3(n_nodes: int = 50, pairs_per_node: int = 500,
               engine: str = "hsqldb") -> Dict[str, float]:
    """Publish (dataID, hostID) pairs into the DDC (DHT) and into the DC.

    Returns the total elapsed time for each catalog, the aggregate publish
    rates and the slowdown ratio of the DDC relative to the DC.
    """
    if n_nodes <= 0 or pairs_per_node <= 0:
        raise ValueError("n_nodes and pairs_per_node must be positive")
    total_pairs = n_nodes * pairs_per_node

    # ---------------- DDC (DHT) ----------------
    env = Environment()
    ddc = DistributedDataCatalog(env, ChordRing(replication=2))
    node_names = [f"ddc-node{i:03d}" for i in range(n_nodes)]
    for name in node_names:
        ddc.join(name)

    def publisher(name: str, index: int):
        for pair in range(pairs_per_node):
            data_id = new_auid(f"{name}-{pair}")
            yield from ddc.publish(data_id, name, origin=name)

    processes = [env.process(publisher(name, i))
                 for i, name in enumerate(node_names)]
    env.run(until=env.all_of(processes))
    ddc_total_s = env.now

    # ---------------- DC (centralized) ----------------
    env2 = Environment()
    engine_profile = _ENGINES[engine]()
    database = Database(env2, engine=engine_profile,
                        pool=ConnectionPool(env2, engine_profile, size=8))
    catalog = DataCatalogService(database)
    endpoint = RpcEndpoint(catalog, name="DataCatalog")

    def dc_publisher(name: str):
        rpc = RpcChannel(env2, ChannelKind.RMI_REMOTE)
        for pair in range(pairs_per_node):
            data_id = new_auid(f"{name}-{pair}")
            yield from rpc.invoke(endpoint, "publish_pair", data_id, name)

    processes2 = [env2.process(dc_publisher(name)) for name in node_names]
    env2.run(until=env2.all_of(processes2))
    dc_total_s = env2.now

    return {
        "n_nodes": float(n_nodes),
        "pairs_per_node": float(pairs_per_node),
        "total_pairs": float(total_pairs),
        "ddc_total_s": ddc_total_s,
        "dc_total_s": dc_total_s,
        "ddc_pairs_per_s": total_pairs / ddc_total_s if ddc_total_s > 0 else float("inf"),
        "dc_pairs_per_s": total_pairs / dc_total_s if dc_total_s > 0 else float("inf"),
        "slowdown_ratio": ddc_total_s / dc_total_s if dc_total_s > 0 else float("inf"),
    }
