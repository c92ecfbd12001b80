"""Service container: instantiates and wires the D* services on a stable host.

The paper's runtime is "a flexible distributed service architecture"; in the
common deployment (and in all of the paper's experiments except where noted)
the four services run together on one stable node — the *service host*.
:class:`ServiceContainer` builds them with a shared database back-end, the
repository file system, the protocol registry and the failure detector, and
exposes RPC endpoints for the client-side APIs.

For the multi-host deployment — the Data Catalog and Data Scheduler sharded
by consistent hashing and replicated over several service hosts with
heartbeat-driven failover — see :mod:`repro.services.fabric` and
:mod:`repro.services.router`.  The container remains the default: a
single-host runtime behaves byte-identically to the pre-fabric code.
"""

from __future__ import annotations

from typing import Optional

from repro.net.flows import Network
from repro.net.host import Host
from repro.net.rpc import ChannelKind, RpcChannel, RpcEndpoint
from repro.sim.kernel import Environment
from repro.services.data_catalog import DataCatalogService
from repro.services.data_repository import DataRepositoryService
from repro.services.data_scheduler import DataSchedulerService
from repro.services.data_transfer import DataTransferService
from repro.services.heartbeat import FailureDetector
from repro.storage.database import ConnectionPool, Database, DatabaseEngine, EmbeddedSQLEngine
from repro.storage.filesystem import LocalFileSystem
from repro.transfer.registry import ProtocolRegistry, default_registry

__all__ = ["ServiceContainer"]


class ServiceContainer:
    """All D* services co-hosted on one stable node."""

    def __init__(
        self,
        env: Environment,
        host: Host,
        network: Network,
        engine: Optional[DatabaseEngine] = None,
        use_connection_pool: bool = True,
        registry: Optional[ProtocolRegistry] = None,
        heartbeat_period_s: float = 1.0,
        timeout_multiplier: float = 3.0,
        monitor_period_s: float = 0.5,
        max_data_schedule: int = 16,
        account_monitor_bandwidth: bool = True,
        domain: Optional[str] = None,
    ):
        if not host.stable:
            raise ValueError("the service container must run on a stable host")
        self.env = env
        self.host = host
        self.network = network
        #: administrative-domain id qualifying endpoint labels under a
        #: federated deployment (None = classic single-domain labels)
        self.domain = domain

        engine = engine if engine is not None else EmbeddedSQLEngine()
        pool = ConnectionPool(env, engine) if use_connection_pool else None
        self.database = Database(env, engine=engine, pool=pool)

        self.registry = registry if registry is not None else default_registry(env, network)
        self.failure_detector = FailureDetector(
            env, heartbeat_period_s=heartbeat_period_s,
            timeout_multiplier=timeout_multiplier)

        self.data_catalog = DataCatalogService(self.database)
        self.data_repository = DataRepositoryService(
            env, host, filesystem=LocalFileSystem(owner=f"{host.name}:repository"))
        self.data_transfer = DataTransferService(
            env, host, network, self.registry,
            monitor_period_s=monitor_period_s,
            account_monitor_bandwidth=account_monitor_bandwidth)
        self.data_scheduler = DataSchedulerService(
            env, database=self.database, failure_detector=self.failure_detector,
            max_data_schedule=max_data_schedule)

        self._started = False

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        """Start background service processes (failure-detector sweep)."""
        if self._started:
            return
        self._started = True
        self.failure_detector.start()

    def stop(self) -> None:
        self.failure_detector.stop()
        self._started = False

    # -- endpoints ----------------------------------------------------------------
    def endpoints(self) -> dict:
        """The four service endpoints, keyed by the paper's short names."""
        return {
            "dc": RpcEndpoint(self.data_catalog, host=self.host,
                              name="DataCatalog", domain=self.domain),
            "dr": RpcEndpoint(self.data_repository, host=self.host,
                              name="DataRepository", domain=self.domain),
            "dt": RpcEndpoint(self.data_transfer, host=self.host,
                              name="DataTransfer", domain=self.domain),
            "ds": RpcEndpoint(self.data_scheduler, host=self.host,
                              name="DataScheduler", domain=self.domain),
        }

    def channel(self, kind: ChannelKind = ChannelKind.RMI_REMOTE) -> RpcChannel:
        """A fresh communication channel towards this container's services."""
        return RpcChannel(self.env, kind)
