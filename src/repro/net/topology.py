"""Ready-made topologies reproducing the paper's three testbeds (§4.1).

* :func:`cluster_topology` — a single cluster like Grid Explorer (GdX), used
  for the micro-benchmarks (Tables 2-3, Figures 3a-c).
* :func:`grid5000_testbed` — the 4-cluster Grid'5000 configuration of
  Table 1 (gdx, grelon, grillon, sagittaire), used for the BLAST
  master/worker experiments (Figures 5-6).
* :func:`dsl_lab_topology` — the 12-node DSL-Lab broadband-ADSL platform,
  used for the fault-tolerance scenario (Figure 4).

All builders return a :class:`Topology` bundling the network, the stable
service host(s) and the volatile worker hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.net.flows import Network
from repro.net.host import Host

__all__ = [
    "GRID5000_CLUSTERS",
    "Topology",
    "cluster_topology",
    "dsl_lab_topology",
    "grid5000_testbed",
]


#: Table 1 of the paper: hardware configuration of the Grid testbed.
#: CPU factors are relative to a 2.0 GHz Opteron 246 core.
GRID5000_CLUSTERS: Dict[str, dict] = {
    "gdx": {
        "cluster_type": "IBM eServer 326m",
        "location": "Orsay",
        "cpus": 312,
        "cpu_type": "AMD Opteron 246/250",
        "frequency_ghz": 2.2,   # mix of 2.0 and 2.4 GHz nodes
        "memory_mb": 2048,
        "cpu_factor": 1.1,
        "node_link_mbps": 125.0,     # GigE NICs
        "gateway_mbps": 125.0,       # shared site uplink used in the experiments
    },
    "grelon": {
        "cluster_type": "HP ProLiant DL140G3",
        "location": "Nancy",
        "cpus": 120,
        "cpu_type": "Intel Xeon 5110",
        "frequency_ghz": 1.6,
        "memory_mb": 2048,
        "cpu_factor": 0.8,
        "node_link_mbps": 125.0,
        "gateway_mbps": 125.0,
    },
    "grillon": {
        "cluster_type": "HP ProLiant DL145G2",
        "location": "Nancy",
        "cpus": 47,
        "cpu_type": "AMD Opteron 246",
        "frequency_ghz": 2.0,
        "memory_mb": 2048,
        "cpu_factor": 1.0,
        "node_link_mbps": 125.0,
        "gateway_mbps": 125.0,
    },
    "sagittaire": {
        "cluster_type": "Sun Fire V20z",
        "location": "Lyon",
        "cpus": 65,
        "cpu_type": "AMD Opteron 250",
        "frequency_ghz": 2.4,
        "memory_mb": 2048,
        "cpu_factor": 1.2,
        "node_link_mbps": 125.0,
        "gateway_mbps": 125.0,
    },
}


#: A GigE LAN's latency (GdX, and inside every Grid'5000 cluster), and the
#: WAN latency between the Grid'5000 sites.
LAN_LATENCY_S = 0.0002
GRID5000_WAN_LATENCY_S = 0.01
#: DSL-Lab's ADSL lines: per-node downstream bandwidth drawn uniformly in
#: [MIN_DOWN_MBPS, MAX_DOWN_MBPS] (Figure 4 reports 53-492 KB/s), upstream a
#: fixed fraction of it, and the WAN latency of a consumer line.
MIN_DOWN_MBPS = 0.05
MAX_DOWN_MBPS = 0.50
UPLINK_FRACTION = 0.25
ADSL_LATENCY_S = 0.03


@dataclass
class Topology:
    """A built platform: the network plus its host roles."""

    env: Environment
    network: Network
    service_hosts: List[Host] = field(default_factory=list)
    worker_hosts: List[Host] = field(default_factory=list)
    name: str = "topology"

    @property
    def service_host(self) -> Host:
        """The primary stable node running the D* services."""
        if not self.service_hosts:
            raise ValueError("topology has no service host")
        return self.service_hosts[0]

    @property
    def all_hosts(self) -> List[Host]:
        return self.service_hosts + self.worker_hosts

    def workers_in_cluster(self, cluster: str) -> List[Host]:
        return [h for h in self.worker_hosts if h.cluster == cluster]


def cluster_topology(
    env: Environment,
    n_workers: int,
    cluster: str = "gdx",
    node_link_mbps: float = 125.0,
    server_link_mbps: float = 125.0,
    n_service_hosts: int = 1,
) -> Topology:
    """A single LAN cluster: stable service/file-server node(s) + workers.

    Defaults correspond to the GdX cluster used for the micro-benchmarks: a
    GigE LAN (~125 MB/s per NIC) and sub-millisecond latency.  The service
    host doubles as FTP server and BitTorrent initial seeder, exactly as in
    the paper's stress setup (§4.3).

    ``n_service_hosts`` > 1 adds further stable hosts (same links) for the
    service-fabric deployments; the primary keeps the classic
    ``{cluster}-service`` name, so single-host behaviour is unchanged.
    """
    if n_workers < 0:
        raise ValueError("n_workers must be non-negative")
    if n_service_hosts < 1:
        raise ValueError("n_service_hosts must be at least 1")
    network = Network(env, default_latency_s=LAN_LATENCY_S)
    servers = []
    for i in range(n_service_hosts):
        name = f"{cluster}-service" if i == 0 else f"{cluster}-service{i + 1}"
        server = Host(
            name, cluster=cluster,
            uplink_mbps=server_link_mbps, downlink_mbps=server_link_mbps,
            stable=True,
        )
        network.add_host(server)
        servers.append(server)
    server = servers[0]
    workers = []
    for i in range(n_workers):
        worker = Host(
            f"{cluster}-node{i:03d}", cluster=cluster,
            uplink_mbps=node_link_mbps, downlink_mbps=node_link_mbps,
        )
        network.add_host(worker)
        workers.append(worker)
    return Topology(env=env, network=network, service_hosts=servers,
                    worker_hosts=workers, name=f"cluster-{cluster}")


def grid5000_testbed(
    env: Environment,
    nodes_per_cluster: Optional[Dict[str, int]] = None,
    total_nodes: Optional[int] = None,
    service_cluster: str = "gdx",
) -> Topology:
    """The 4-cluster Grid'5000 testbed of Table 1.

    ``nodes_per_cluster`` gives the worker count per cluster; if omitted, the
    counts are derived proportionally to the cluster sizes of Table 1 so that
    they sum to ``total_nodes`` (default 400, the paper's §5 deployment).
    The service node lives in ``service_cluster`` (gdx/Orsay by default);
    inter-cluster traffic goes through per-cluster WAN gateways.
    """
    if nodes_per_cluster is None:
        total = 400 if total_nodes is None else int(total_nodes)
        weights = {name: spec["cpus"] for name, spec in GRID5000_CLUSTERS.items()}
        total_weight = sum(weights.values())
        nodes_per_cluster = {
            name: max(1, int(round(total * w / total_weight)))
            for name, w in weights.items()
        }
    unknown = set(nodes_per_cluster) - set(GRID5000_CLUSTERS)
    if unknown:
        raise ValueError(f"unknown clusters: {sorted(unknown)}")

    network = Network(env, default_latency_s=LAN_LATENCY_S,
                      wan_latency_s=GRID5000_WAN_LATENCY_S)
    spec0 = GRID5000_CLUSTERS[service_cluster]
    server = Host(
        f"{service_cluster}-service", cluster=service_cluster,
        uplink_mbps=spec0["node_link_mbps"], downlink_mbps=spec0["node_link_mbps"],
        cpu_factor=spec0["cpu_factor"], stable=True,
    )
    network.add_host(server)

    workers: List[Host] = []
    for name, count in nodes_per_cluster.items():
        spec = GRID5000_CLUSTERS[name]
        network.set_cluster_gateway(name, spec["gateway_mbps"])
        for i in range(count):
            worker = Host(
                f"{name}-node{i:03d}", cluster=name,
                uplink_mbps=spec["node_link_mbps"],
                downlink_mbps=spec["node_link_mbps"],
                cpu_factor=spec["cpu_factor"],
                memory_mb=spec["memory_mb"],
            )
            network.add_host(worker)
            workers.append(worker)
    return Topology(env=env, network=network, service_hosts=[server],
                    worker_hosts=workers, name="grid5000")


def dsl_lab_topology(
    env: Environment,
    n_workers: int = 12,
    rng: Optional[RandomStreams] = None,
) -> Topology:
    """The DSL-Lab broadband platform (§4.1, §4.4).

    Twelve Mini-ITX Pentium-M nodes behind consumer ADSL lines: asymmetric
    links with heterogeneous downstream bandwidth (the paper's Figure 4
    reports 53-492 KB/s during downloads), higher latency, and a service
    host reachable over the WAN.  Bandwidths are drawn per node from a
    uniform distribution so each node's quality of service differs, as in
    the real platform.
    """
    if rng is None:
        rng = RandomStreams(42)
    network = Network(env, default_latency_s=ADSL_LATENCY_S,
                      wan_latency_s=ADSL_LATENCY_S)
    server = Host(
        "dsl-service", cluster="dsl-server",
        uplink_mbps=5.0, downlink_mbps=5.0, cpu_factor=1.0, stable=True,
    )
    network.add_host(server)
    workers = []
    for i in range(n_workers):
        down = rng.uniform(f"dsl-down-{i}", MIN_DOWN_MBPS, MAX_DOWN_MBPS)
        up = down * UPLINK_FRACTION
        worker = Host(
            f"DSL{i + 1:02d}", cluster="dsl-lab",
            uplink_mbps=up, downlink_mbps=down,
            cpu_factor=0.45, cores=1, memory_mb=512, disk_mb=2048.0,
        )
        network.add_host(worker)
        workers.append(worker)
    return Topology(env=env, network=network, service_hosts=[server],
                    worker_hosts=workers, name="dsl-lab")
