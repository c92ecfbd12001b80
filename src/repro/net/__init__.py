"""Flow-level network substrate.

The BitDew paper evaluates its runtime on real networks (Grid'5000 cluster
interconnects and the DSL-Lab ADSL testbed).  This subpackage replaces those
testbeds with a *flow-level* network simulation:

* :mod:`repro.net.host` — host model (uplink/downlink capacity, CPU speed,
  cluster membership, online/offline state, local storage).
* :mod:`repro.net.flows` — the bandwidth-sharing engine.  Active transfers are
  fluid flows; whenever the set of flows changes, a max-min fair allocation is
  recomputed over host and cluster-gateway capacity constraints.
* :mod:`repro.net.topology` — ready-made topologies: a single cluster, the
  4-cluster Grid'5000 testbed of Table 1, and the 12-node DSL-Lab platform.
* :mod:`repro.net.rpc` — a latency-modelled RPC layer standing in for Java
  RMI (local call, loopback RMI, remote RMI), used by the D* services.

Units: sizes are megabytes (MB), rates are MB/s, times are seconds.
"""

from repro.net.flows import Flow, Network, TransferFailed
from repro.net.host import Host
from repro.net.rpc import RpcChannel, RpcEndpoint, ChannelKind
from repro.net.topology import (
    Topology,
    cluster_topology,
    dsl_lab_topology,
    grid5000_testbed,
)

__all__ = [
    "ChannelKind",
    "Flow",
    "Host",
    "Network",
    "RpcChannel",
    "RpcEndpoint",
    "Topology",
    "TransferFailed",
    "cluster_topology",
    "dsl_lab_topology",
    "grid5000_testbed",
]
