"""Service fabric: the D* services sharded and replicated over N hosts.

The classic deployment (:class:`~repro.services.container.ServiceContainer`)
co-hosts the four D* services on one stable node — the hard scalability
ceiling the paper's "flexible distributed service architecture" is meant to
avoid.  :class:`ServiceFabric` is the multi-host deployment:

* the **Data Catalog** and **Data Scheduler** are split into *S* shards by
  consistent hashing (key → shard via the Chord ring math, see
  :class:`~repro.services.router.ShardRing`); each shard gets its own
  database back-end, so aggregate service throughput scales with the shard
  count (the centralized database serialises statements — the very
  bottleneck Table 2 measures);
* each shard is **replicated** on *k* service hosts: the shard's state is a
  replicated state machine (modelled as the replicas sharing the shard's
  service instance) and each replica is an RPC endpoint on a distinct
  host, so a host crash leaves k-1 live endpoints;
* the **Data Repository** and **Data Transfer** services stay single-
  instance on the primary host (they bind to the repository's physical
  storage and the transfer monitor, which the paper keeps on the stable
  file server);
* a dedicated heartbeat **failure detector over the service hosts** drives
  failover: every service host heartbeats while online, and the
  :class:`~repro.services.router.FabricRouter` routes each shard to its
  first replica the detector believes alive — so a crash reroutes clients
  within one heartbeat timeout.

The single-host, single-shard default deployment does *not* go through this
module: :class:`~repro.core.runtime.BitDewEnvironment` keeps building the
classic container, byte-identical to the pre-fabric runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.net.flows import Network
from repro.net.host import Host
from repro.net.rpc import ChannelKind, FailoverPolicy, RpcChannel, RpcEndpoint
from repro.services.data_catalog import DataCatalogService
from repro.services.data_repository import DataRepositoryService
from repro.services.data_scheduler import DataSchedulerService
from repro.services.data_transfer import DataTransferService
from repro.services.heartbeat import FailureDetector
from repro.services.router import ShardRing
from repro.sim.kernel import Environment
from repro.storage.database import ConnectionPool, Database, DatabaseEngine, EmbeddedSQLEngine
from repro.storage.filesystem import LocalFileSystem
from repro.transfer.registry import ProtocolRegistry, default_registry

__all__ = ["ServiceFabric", "ShardedDataCatalog", "ShardedDataScheduler"]


class ShardedDataCatalog:
    """Facade over the catalog shards: routes by key, aggregates the rest.

    Gives harness code one object with the :class:`DataCatalogService`
    bookkeeping surface whether the catalog is centralized or sharded.
    """

    def __init__(self, fabric: "ServiceFabric"):
        self.fabric = fabric
        #: the fabric's own list, not a copy: a split or merge shows here
        self.shards = fabric.catalog_shards

    def _shard(self, key: str) -> DataCatalogService:
        # Cost-free facade access follows the same effective routing as the
        # RPC router, so harness bookkeeping reads the right shard mid-migration.
        return self.shards[self.fabric.effective_shard("dc", key)]

    # -- keyed pass-throughs (cost-free bookkeeping variants) ---------------
    def register_data_now(self, data):
        return self._shard(data.uid).register_data_now(data)

    def get_data_now(self, uid: str):
        return self._shard(uid).get_data_now(uid)

    def add_locator_now(self, locator):
        return self._shard(locator.data_uid).add_locator_now(locator)

    def locators_for_now(self, data_uid: str):
        return self._shard(data_uid).locators_for_now(data_uid)

    # -- aggregates ---------------------------------------------------------
    def all_data_now(self):
        return [row for shard in self.shards for row in shard.all_data_now()]

    @property
    def data_count(self) -> int:
        return sum(shard.data_count for shard in self.shards)

    @property
    def requests(self) -> int:
        return sum(shard.requests for shard in self.shards)


class ShardedDataScheduler:
    """Facade over the scheduler shards: Θ is partitioned by data uid."""

    def __init__(self, fabric: "ServiceFabric"):
        self.fabric = fabric
        self.shards = fabric.scheduler_shards    #: the fabric's own list

    def _shard(self, uid: str) -> DataSchedulerService:
        return self.shards[self.fabric.effective_shard("ds", uid)]

    # -- keyed pass-throughs ------------------------------------------------
    def schedule(self, data, attribute=None):
        return self._shard(data.uid).schedule(data, attribute)

    def pin(self, data, host_name: str, attribute=None):
        return self._shard(data.uid).pin(data, host_name, attribute)

    def unschedule(self, data_uid: str) -> bool:
        return self._shard(data_uid).unschedule(data_uid)

    def entry(self, data_uid: str):
        return self._shard(data_uid).entry(data_uid)

    def owners_of(self, data_uid: str) -> Set[str]:
        return self._shard(data_uid).owners_of(data_uid)

    def confirm_ownership(self, host_name: str, data_uid: str) -> None:
        self._shard(data_uid).confirm_ownership(host_name, data_uid)

    # -- aggregates ---------------------------------------------------------
    def entries(self):
        return [entry for shard in self.shards for entry in shard.entries()]

    def missing_replicas(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for shard in self.shards:
            merged.update(shard.missing_replicas())
        return merged

    @property
    def managed_count(self) -> int:
        return sum(shard.managed_count for shard in self.shards)

    @property
    def sync_count(self) -> int:
        return sum(shard.sync_count for shard in self.shards)

    @property
    def entries_examined(self) -> int:
        return sum(shard.entries_examined for shard in self.shards)


class ServiceFabric:
    """The D* services deployed over *N* stable hosts, sharded × replicated.

    Exposes the :class:`ServiceContainer` attribute surface
    (``host``, ``data_repository``, ``data_transfer``, ``data_catalog``,
    ``data_scheduler``, ``failure_detector``, ``start``/``stop``,
    ``channel``) so the runtime and harness code treat both deployments
    uniformly; ``data_catalog``/``data_scheduler`` are the sharded facades.
    """

    def __init__(
        self,
        env: Environment,
        hosts: Sequence[Host],
        network: Network,
        shards: int = 1,
        replicas: int = 1,
        engine: Optional[DatabaseEngine] = None,
        registry: Optional[ProtocolRegistry] = None,
        heartbeat_period_s: float = 1.0,
        timeout_multiplier: float = 3.0,
        monitor_period_s: float = 0.5,
        max_data_schedule: int = 16,
        host_heartbeat_period_s: float = 1.0,
        host_timeout_multiplier: float = 3.0,
        host_sweep_period_s: float = 0.25,
        ring_vnodes: int = 16,
        domain: Optional[str] = None,
    ):
        hosts = list(hosts)
        if not hosts:
            raise ValueError("the service fabric needs at least one host")
        for host in hosts:
            if not host.stable:
                raise ValueError(
                    f"service fabric host {host.name} must be stable")
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if not 1 <= replicas <= len(hosts):
            raise ValueError(
                f"replicas must be between 1 and the host count "
                f"({len(hosts)}), got {replicas}")
        self.env = env
        self.hosts = hosts
        self.host = hosts[0]          #: primary host (runs DR and DT)
        self.network = network
        self.shards = shards
        self.replicas = replicas
        self.max_data_schedule = int(max_data_schedule)
        #: administrative-domain id qualifying every endpoint label (None =
        #: single-domain deployment, historical labels unchanged)
        self.domain = domain

        engine = engine if engine is not None else EmbeddedSQLEngine()
        self.engine = engine
        self.registry = registry if registry is not None else default_registry(env, network)

        # Service-host failure detection drives shard failover; it sweeps
        # faster than the volatile-host detector so reroutes land promptly.
        self.host_detector = FailureDetector(
            env, heartbeat_period_s=host_heartbeat_period_s,
            timeout_multiplier=host_timeout_multiplier,
            sweep_period_s=host_sweep_period_s)
        # Retries must outlast the detection window of a crashed host.
        self.failover_policy = FailoverPolicy(
            max_attempts=max(
                4, int(self.host_detector.timeout_s
                       / max(host_sweep_period_s, 1e-9)) + 4),
            backoff_s=host_sweep_period_s)
        # Volatile-host failure detection is a fabric-level (logically
        # replicated) service shared by every scheduler shard, exactly like
        # the container's detector — except that its timeout must also
        # cover the *failover blackout*: while a crashed service host goes
        # undetected, clients' heartbeats block in failover retries for up
        # to the detection window, and a live volatile host must not be
        # declared dead over that gap.
        blackout_s = (self.host_detector.timeout_s
                      + 2 * self.host_detector.sweep_period_s
                      + self.failover_policy.backoff_s)
        min_multiplier = (heartbeat_period_s + blackout_s) / heartbeat_period_s + 1.0
        self.failure_detector = FailureDetector(
            env, heartbeat_period_s=heartbeat_period_s,
            timeout_multiplier=max(timeout_multiplier, min_multiplier))

        # -- unsharded services on the primary host -------------------------
        self.data_repository = DataRepositoryService(
            env, self.host,
            filesystem=LocalFileSystem(owner=f"{self.host.name}:repository"))
        self.data_transfer = DataTransferService(
            env, self.host, network, self.registry,
            monitor_period_s=monitor_period_s)

        # -- sharded services ----------------------------------------------
        self.dc_ring = ShardRing(shards, label="dc", vnodes=ring_vnodes)
        self.ds_ring = ShardRing(shards, label="ds", vnodes=ring_vnodes)
        self.shard_databases: List[Database] = []
        self.catalog_shards: List[DataCatalogService] = []
        self.scheduler_shards: List[DataSchedulerService] = []
        self._endpoints: Dict[str, List[List[RpcEndpoint]]] = {
            "dc": [], "ds": []}
        for index in range(shards):
            self._build_shard(index)
        self._endpoints["dr"] = [[
            RpcEndpoint(self.data_repository, host=self.host,
                        name="DataRepository", domain=domain)]]
        self._endpoints["dt"] = [[
            RpcEndpoint(self.data_transfer, host=self.host,
                        name="DataTransfer", domain=domain)]]

        #: the active :class:`~repro.services.rebalance.ShardMigration`
        #: overlay, or None — the one place the router, both facades and the
        #: autoscaler read it from.  While set, keyed invocations follow the
        #: migration's copy → flip state machine (keys born during it route
        #: by the *new* ring) and scatters cover every endpoint group.
        self.migration = None
        self.data_catalog = ShardedDataCatalog(self)
        self.data_scheduler = ShardedDataScheduler(self)
        self._started = False
        #: bumped by every start(); heartbeat loops exit on a stale epoch,
        #: so stop()+start() never leaves two loops beating per host.
        self._epoch = 0

    # ------------------------------------------------------------------ shard construction
    def _build_shard(self, index: int) -> None:
        """Build shard *index*'s database, services and replica endpoints."""
        database = Database(self.env, engine=self.engine,
                            pool=ConnectionPool(self.env, self.engine))
        self.shard_databases.append(database)
        catalog = DataCatalogService(database)
        scheduler = DataSchedulerService(
            self.env, database=database,
            failure_detector=self.failure_detector,
            max_data_schedule=self.max_data_schedule)
        self.catalog_shards.append(catalog)
        self.scheduler_shards.append(scheduler)
        replica_hosts = self._replica_hosts(index)
        self._endpoints["dc"].append([
            RpcEndpoint(catalog, host=h, name="DataCatalog",
                        shard=f"dc-{index}", domain=self.domain)
            for h in replica_hosts])
        self._endpoints["ds"].append([
            RpcEndpoint(scheduler, host=h, name="DataScheduler",
                        shard=f"ds-{index}", domain=self.domain)
            for h in replica_hosts])

    # ------------------------------------------------------------------ elasticity
    def add_shard(self) -> int:
        """Bring up the services/database/endpoints for one new tail shard.

        Routing does **not** change here: ``self.shards`` and the rings are
        only committed by :meth:`commit_transition` once the rebalance
        coordinator has copied the new shard's keys over.  Until then the
        shard exists as endpoint group ``index`` that only the migration
        overlay routes to.
        """
        index = len(self.catalog_shards)
        self._build_shard(index)
        return index

    def commit_transition(self, dc_ring: ShardRing, ds_ring: ShardRing,
                          shards: int) -> None:
        """Make the new rings/shard count authoritative fabric-wide."""
        self.dc_ring = dc_ring
        self.ds_ring = ds_ring
        self.shards = shards

    def retire_tail_shard(self) -> None:
        """Tear down the (drained, idle) tail shard after a merge."""
        self.shard_databases.pop()
        self.catalog_shards.pop()
        self.scheduler_shards.pop()
        self._endpoints["dc"].pop()
        self._endpoints["ds"].pop()

    def endpoint_group_count(self, service: str) -> int:
        """Endpoint groups currently up for *service* — during a split this
        exceeds ``shard_count`` by the joining shard until commit."""
        groups = self._endpoints.get(service)
        return len(groups) if groups else 1

    # ------------------------------------------------------------------ placement
    def _replica_hosts(self, shard_index: int) -> List[Host]:
        """Primary-first replica placement: k consecutive hosts on the list
        (always distinct, since the constructor enforces k ≤ host count)."""
        count = len(self.hosts)
        return [self.hosts[(shard_index + offset) % count]
                for offset in range(self.replicas)]

    # ------------------------------------------------------------------ router surface
    def shard_count(self, service: str) -> int:
        """Shards of *service* (0 marks an unsharded, single-group service)."""
        return self.shards if service in ("dc", "ds") else 0

    def ring_for(self, service: str) -> ShardRing:
        return self.dc_ring if service == "dc" else self.ds_ring

    def effective_shard(self, service: str, key: str) -> int:
        """The shard that owns *key* right now: the migration overlay's
        answer while a rebalance is in flight, the committed ring's otherwise."""
        if self.migration is not None:
            return self.migration.effective_shard(service, key)
        return self.ring_for(service).shard_for(key)

    def shard_endpoints(self, service: str, shard: int) -> List[RpcEndpoint]:
        return self._endpoints[service][shard]

    def host_believed_alive(self, host: Optional[Host]) -> bool:
        """Heartbeat-driven liveness; a never-heartbeated host is presumed alive."""
        if host is None:
            return True
        entry = self.host_detector.liveness(host.name)
        return entry.alive if entry is not None else True

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the detectors and the service hosts' heartbeat loops."""
        if self._started:
            return
        self._started = True
        self._epoch += 1
        self.failure_detector.start()
        self.host_detector.start()
        for host in self.hosts:
            self.env.process(self._host_heartbeat_loop(host, self._epoch))

    def stop(self) -> None:
        self.failure_detector.stop()
        self.host_detector.stop()
        self._started = False

    def _host_heartbeat_loop(self, host: Host, epoch: int):
        period = self.host_detector.heartbeat_period_s
        while self._started and self._epoch == epoch:
            if host.online:
                self.host_detector.heartbeat(host.name)
            yield self.env.timeout(period)

    # ------------------------------------------------------------------ channels
    def channel(self, kind: ChannelKind = ChannelKind.RMI_REMOTE) -> RpcChannel:
        """A fresh communication channel towards the fabric's services."""
        return RpcChannel(self.env, kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServiceFabric(hosts={len(self.hosts)}, "
                f"shards={self.shards}, replicas={self.replicas})")
