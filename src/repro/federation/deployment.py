"""Federated deployments: several BitDew domains, one simulation.

A *domain* is a complete, sovereign BitDew environment — its own
``cluster_topology`` LAN, its own service fabric (or classic container),
its own Data Catalog/Scheduler/Repository, its own volatile hosts — plus
a :class:`~repro.federation.gateway.FederationGateway` on its primary
service host.  A :class:`Federation` builds D such domains on **one**
simulation kernel and peers their gateways over
:class:`~repro.federation.gateway.WanLink`\\ s, turning the multi-cluster
WAN topology into genuinely separate administrative domains.

Sovereignty bookkeeping lives here: every datum has exactly one *home*
domain (where it was published); imported replicas remember their home
and are never re-exported.  :meth:`Federation.private_leaks` is the audit
the chaos suite runs after every partition/heal cycle — a ``private``
datum observed anywhere outside its home domain is a leak, full stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Tuple

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.core.runtime import BitDewEnvironment
from repro.federation.gateway import FederationGateway, WanLink
from repro.federation.policy import PRIVATE, PUBLIC, TrustPolicy
from repro.federation.replication import FederationReplicator
from repro.net.topology import cluster_topology
from repro.sim.kernel import Environment
from repro.storage.filesystem import FileContent

__all__ = ["DomainSpec", "FederationDomain", "Federation"]


@dataclass(frozen=True)
class DomainSpec:
    """Declarative description of one administrative domain."""

    name: str
    n_workers: int = 4
    shards: int = 1
    service_hosts: int = 1
    service_replicas: int = 1
    #: "open" | "allowlist" — the domain's gateway trust policy
    trust: str = "open"
    trust_peers: Tuple[str, ...] = ()
    node_link_mbps: float = 125.0
    server_link_mbps: float = 125.0
    sync_period_s: float = 1.0
    heartbeat_period_s: float = 1.0
    seed: int = 0

    def trust_policy(self) -> TrustPolicy:
        return TrustPolicy(kind=self.trust, peers=frozenset(self.trust_peers))


class FederationDomain:
    """One sovereign BitDew environment inside a federation."""

    def __init__(self, federation: "Federation", spec: DomainSpec,
                 runtime: BitDewEnvironment):
        self.federation = federation
        self.spec = spec
        self.name = spec.name
        self.runtime = runtime
        self.env = runtime.env
        self.trust = spec.trust_policy()
        #: uid -> Data for data *homed* in this domain
        self._home: Dict[str, Data] = {}
        #: uid -> visibility for every datum this domain knows about
        self._visibility: Dict[str, str] = {}
        #: uid -> home-domain name (imports record their origin)
        self._home_domain: Dict[str, str] = {}
        self.gateway = FederationGateway(self)
        self.replicator: Optional[FederationReplicator] = None

    # ------------------------------------------------------------------ service access
    @property
    def catalog(self):
        return self.runtime.data_catalog

    @property
    def scheduler(self):
        return self.runtime.data_scheduler

    @property
    def repository(self):
        return self.runtime.data_repository

    # ------------------------------------------------------------------ publishing
    def publish(self, content: FileContent,
                attribute: Optional[Attribute] = None,
                name: Optional[str] = None) -> Data:
        """Publish one datum *homed* in this domain: catalog registration,
        repository copy, scheduling, and sovereignty bookkeeping."""
        attr = attribute if attribute is not None else Attribute(name="fed")
        data = Data.from_content(content, name=name)
        self.catalog.register_data_now(data)
        locator = self.repository.store_now(data, content)
        self.catalog.add_locator_now(locator)
        self.scheduler.schedule(data, attr)
        self._home[data.uid] = data
        self._visibility[data.uid] = attr.visibility
        self._home_domain[data.uid] = self.name
        return data

    def install_replica(self, descriptor: dict, attribute: Attribute,
                        content: Optional[FileContent],
                        home: str) -> bool:
        """Install an imported replica (the gateway's accepting side)."""
        uid = descriptor["uid"]
        if self.knows(uid):
            return False
        data = Data(name=descriptor["name"], size_mb=descriptor["size_mb"],
                    checksum=getattr(content, "checksum", "") or "",
                    uid=uid)
        self.catalog.register_data_now(data)
        if content is not None:
            locator = self.repository.store_now(data, content)
            self.catalog.add_locator_now(locator)
        # A copy of the home attribute drives *local* placement (e.g. a
        # replicate-to-all datum fans out to this domain's reservoirs too).
        self.scheduler.schedule(data, dc_replace(attribute))
        self._visibility[uid] = descriptor["visibility"]
        self._home_domain[uid] = home
        return True

    # ------------------------------------------------------------------ sovereignty views
    def home_data(self) -> List[Data]:
        return [self._home[uid] for uid in sorted(self._home)]

    def home_datum(self, uid: str) -> Optional[Data]:
        return self._home.get(uid)

    def home_of(self, uid: str) -> Optional[str]:
        return self._home_domain.get(uid)

    def visibility_of(self, uid: str) -> str:
        return self._visibility.get(uid, PUBLIC)

    def attribute_of(self, uid: str) -> Optional[Attribute]:
        entry = self.scheduler.entry(uid)
        return entry.attribute if entry is not None else None

    def content_of(self, uid: str) -> Optional[FileContent]:
        if self.repository.has(uid):
            return self.repository.retrieve_now(uid)
        return None

    def descriptor_of(self, uid: str) -> dict:
        data = self._home.get(uid)
        if data is None:
            raise KeyError(f"{uid} is not homed in domain {self.name}")
        return {
            "uid": data.uid,
            "name": data.name,
            "size_mb": data.size_mb,
            "visibility": self.visibility_of(uid),
            "home": self.name,
        }

    def knows(self, uid: str) -> bool:
        """Raw catalog check (routed by uid, works for both deployments)."""
        return self.catalog.get_data_now(uid) is not None

    # ------------------------------------------------------------------ replication
    def start_replicator(self, period_s: float = 1.0,
                         on_phase=None) -> FederationReplicator:
        """Create (or reconfigure) this domain's scheduled replicator."""
        self.replicator = FederationReplicator(
            self, period_s=period_s, on_phase=on_phase)
        return self.replicator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FederationDomain({self.name}, home={len(self._home)})"


class Federation:
    """D peered domains on one simulation kernel."""

    def __init__(self, specs: List[DomainSpec],
                 wan_latency_s: float = 0.05,
                 wan_bandwidth_mbps: float = 12.0):
        if not specs:
            raise ValueError("a federation needs at least one domain")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"domain names must be unique (got {names})")
        self.env = Environment()
        self.wan_latency_s = float(wan_latency_s)
        self.wan_bandwidth_mbps = float(wan_bandwidth_mbps)
        self.domains: Dict[str, FederationDomain] = {}
        self.links: Dict[Tuple[str, str], WanLink] = {}
        for spec in specs:
            topology = cluster_topology(
                self.env, spec.n_workers, cluster=spec.name,
                node_link_mbps=spec.node_link_mbps,
                server_link_mbps=spec.server_link_mbps,
                n_service_hosts=max(spec.service_hosts, 1))
            runtime = BitDewEnvironment(
                topology,
                shards=spec.shards,
                service_hosts=max(spec.service_hosts, 1),
                service_replicas=spec.service_replicas,
                sync_period_s=spec.sync_period_s,
                heartbeat_period_s=spec.heartbeat_period_s,
                seed=spec.seed,
                domain=spec.name,
            )
            self.domains[spec.name] = FederationDomain(self, spec, runtime)

    # ------------------------------------------------------------------ access
    def domain(self, name: str) -> FederationDomain:
        return self.domains[name]

    def domain_names(self) -> List[str]:
        return list(self.domains)

    def link(self, a: str, b: str) -> WanLink:
        return self.links[tuple(sorted((a, b)))]

    # ------------------------------------------------------------------ peering
    def peer(self, a: str, b: str, latency_s: Optional[float] = None,
             bandwidth_mbps: Optional[float] = None) -> WanLink:
        """Peer two domains over one symmetric WAN link."""
        if a == b:
            raise ValueError("a domain cannot peer with itself")
        key = tuple(sorted((a, b)))
        if key in self.links:
            return self.links[key]
        link = WanLink(
            self.env, a, b,
            latency_s=self.wan_latency_s if latency_s is None else latency_s,
            bandwidth_mbps=(self.wan_bandwidth_mbps if bandwidth_mbps is None
                            else bandwidth_mbps))
        self.links[key] = link
        self.domains[a].gateway.connect(self.domains[b].gateway, link)
        self.domains[b].gateway.connect(self.domains[a].gateway, link)
        return link

    def peer_all(self, latency_s: Optional[float] = None,
                 bandwidth_mbps: Optional[float] = None) -> None:
        names = self.domain_names()
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self.peer(a, b, latency_s=latency_s,
                          bandwidth_mbps=bandwidth_mbps)

    # ------------------------------------------------------------------ faults
    def partition(self, a: str, b: str) -> None:
        """Sever the WAN link between two domains (both directions)."""
        self.link(a, b).sever()

    def heal(self, a: str, b: str) -> None:
        self.link(a, b).heal()

    # ------------------------------------------------------------------ audits
    def holders_of(self, uid: str) -> List[str]:
        """Domains whose catalog knows *uid* (raw scan, no RPC)."""
        return [name for name, domain in self.domains.items()
                if domain.knows(uid)]

    def private_leaks(self) -> List[str]:
        """The sovereignty audit: a ``private`` datum observed outside its
        home domain — in a catalog, a scheduler or a repository — is a
        leak.  Raw-scans every domain, bypassing the gateways."""
        leaks: List[str] = []
        for home_name, home in self.domains.items():
            for data in home.home_data():
                if home.visibility_of(data.uid) != PRIVATE:
                    continue
                for other_name, other in self.domains.items():
                    if other_name == home_name:
                        continue
                    sightings = []
                    if other.knows(data.uid):
                        sightings.append("catalog")
                    if other.scheduler.entry(data.uid) is not None:
                        sightings.append("scheduler")
                    if other.repository.has(data.uid):
                        sightings.append("repository")
                    if sightings:
                        leaks.append(
                            f"private datum {data.uid} (home {home_name}) "
                            f"observed in {other_name} "
                            f"({', '.join(sightings)})")
        return leaks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Federation({self.domain_names()}, "
                f"links={len(self.links)})")
