"""The BitDew runtime environment: wiring services, hosts and APIs together.

The paper's deployment model (§3.1): stable *service hosts* run the D*
services; volatile hosts — *clients* asking for storage and *reservoirs*
offering theirs — attach to them, run the API layer and periodically pull
the Data Scheduler (heartbeat + synchronisation).  This module provides:

* :class:`BitDewEnvironment` — builds the service container on a topology's
  stable host, the Distributed Data Catalog ring, the protocol registry, and
  manages host attachment;
* :class:`HostAgent` — one attached host: its local cache, its event bus,
  its RPC channel to the services, the three APIs (``BitDew``,
  ``ActiveData``, ``TransferManager``), the periodic synchronisation loop of
  the pull model, and the per-datum statistics the experiments read out
  (assignment time, download time, measured bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Any, Dict, Generator, List, Optional, Set,
                    Tuple, Union)

from repro.core.active_data import ActiveData
from repro.core.attributes import Attribute, DEFAULT_ATTRIBUTE
from repro.core.bitdew import BitDew
from repro.core.data import Data, Locator
from repro.core.events import DataEventType, EventBus
from repro.core.exceptions import (
    BitDewError,
    DataNotFoundError,
    TransferAbortedError,
)
from repro.core.transfer_manager import TransferManager
from repro.dht.chord import ChordRing
from repro.dht.ddc import DistributedDataCatalog
from repro.net.flows import Network
from repro.net.host import Host
from repro.net.rpc import ChannelKind, RpcChannel, RpcError
from repro.net.topology import Topology
from repro.services.container import ServiceContainer
from repro.services.fabric import ServiceFabric
from repro.services.router import FabricRouter, StaticRouter
from repro.sim.kernel import Environment, Event, Process
from repro.sim.rng import RandomStreams
from repro.storage.database import DatabaseEngine
from repro.storage.filesystem import FileContent, LocalFileSystem
from repro.transfer.oob import TransferEndpoint
from repro.transfer.registry import ProtocolRegistry

__all__ = ["BitDewEnvironment", "HostAgent", "DataTransferStats"]


@dataclass
class DataTransferStats:
    """Per-datum timeline recorded on the receiving host (used by Figure 4)."""

    data_uid: str
    data_name: str
    assigned_at: Optional[float] = None
    download_started_at: Optional[float] = None
    download_completed_at: Optional[float] = None
    size_mb: float = 0.0

    @property
    def wait_time_s(self) -> Optional[float]:
        """Time between assignment knowledge and the start of the download."""
        if self.assigned_at is None or self.download_started_at is None:
            return None
        return self.download_started_at - self.assigned_at

    @property
    def download_time_s(self) -> Optional[float]:
        if self.download_started_at is None or self.download_completed_at is None:
            return None
        return self.download_completed_at - self.download_started_at

    @property
    def bandwidth_mbps(self) -> Optional[float]:
        duration = self.download_time_s
        if duration is None or duration <= 0:
            return None
        return self.size_mb / duration


def _require_positive(name: str, value: float) -> None:
    """A period of zero or less would stall the pull loop at one instant."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


class HostAgent:
    """One attached host: cache, APIs, pull loop, statistics."""

    def __init__(
        self,
        runtime: "BitDewEnvironment",
        host: Host,
        channel_kind: Optional[ChannelKind] = None,
        sync_period_s: Optional[float] = None,
        reservoir: bool = True,
        max_data_schedule: Optional[int] = None,
    ) -> None:
        if sync_period_s is not None:
            _require_positive("sync_period_s", sync_period_s)
        self.runtime = runtime
        self.env: Environment = runtime.env
        self.host = host
        #: reservoir hosts offer storage (targets of replica placement);
        #: client hosts only receive data through affinity (paper §3.1).
        self.reservoir = bool(reservoir)
        #: per-host override of the scheduler's MaxDataSchedule (None = use
        #: the Data Scheduler's default).
        self.max_data_schedule = max_data_schedule
        kind = channel_kind
        if kind is None:
            kind = (ChannelKind.LOCAL if host is runtime.container.host
                    else ChannelKind.RMI_REMOTE)
        self.channel = RpcChannel(self.env, kind)
        self.sync_period_s = (
            float(sync_period_s) if sync_period_s is not None
            else runtime.sync_period_s
        )
        self.filesystem = LocalFileSystem(capacity_mb=host.disk_mb, owner=host.name)
        self.event_bus = EventBus(host.name)
        self.transfer_manager = TransferManager(self)
        self.bitdew = BitDew(self)
        self.active_data = ActiveData(self)

        #: local cache view: uid -> Data, uid -> Attribute, uids whose bytes are present
        self._local_data: Dict[str, Data] = {}
        self._local_attrs: Dict[str, Attribute] = {}
        self._content_present: Set[str] = set()
        #: uids under the Data Scheduler's control on this host.  Data created
        #: locally but never scheduled is not purged by the pull loop (only
        #: the user can delete it); anything the scheduler assigned — or that
        #: this host explicitly scheduled/pinned — follows Algorithm 1's
        #: obsolete-data removal.
        self._scheduler_managed: Set[str] = set()
        #: per-datum transfer timeline (Figure 4 reads this)
        self.stats: Dict[str, DataTransferStats] = {}
        self.attached_at = self.env.now
        self._running = False

    # ------------------------------------------------------------------ shared services
    @property
    def ddc(self) -> DistributedDataCatalog:
        """The Distributed Data Catalog this agent publishes into."""
        return self.runtime.ddc

    # ------------------------------------------------------------------ cache helpers
    def cache_path(self, data: Data) -> str:
        return f"cache/{data.uid}/{data.name}"

    def cache_endpoint(self, data: Data) -> TransferEndpoint:
        return TransferEndpoint(host=self.host, filesystem=self.filesystem,
                                path=self.cache_path(data))

    def register_local(self, data: Data, content_present: bool = False) -> None:
        self._local_data[data.uid] = data
        if content_present:
            self._content_present.add(data.uid)

    def set_attribute(self, data: Data, attribute: Optional[Attribute]) -> None:
        if attribute is not None:
            self._local_attrs[data.uid] = attribute

    def mark_managed(self, uid: str) -> None:
        """Record that the Data Scheduler governs this datum on this host."""
        self._scheduler_managed.add(uid)

    def is_managed(self, uid: str) -> bool:
        return uid in self._scheduler_managed

    def attribute_of(self, data: Data) -> Attribute:
        return self._local_attrs.get(data.uid, DEFAULT_ATTRIBUTE)

    def has_local(self, uid: str) -> bool:
        return uid in self._local_data

    def has_content(self, uid: str) -> bool:
        return uid in self._content_present

    @property
    def content_present(self) -> AbstractSet[str]:
        """The live set of uids whose bytes are in the cache (read, never
        write): a poll tests it without a Python call into the agent."""
        return self._content_present

    def local_content(self, uid: str) -> Optional[FileContent]:
        data = self._local_data.get(uid)
        if data is None or uid not in self._content_present:
            return None
        path = self.cache_path(data)
        if not self.filesystem.exists(path):
            return None
        return self.filesystem.read(path)

    def local_data(self) -> List[Data]:
        return list(self._local_data.values())

    def cached_uids(self) -> Set[str]:
        return set(self._local_data.keys())

    def remove_local(self, uid: str, fire_event: bool = False) -> bool:
        data = self._local_data.pop(uid, None)
        attr = self._local_attrs.pop(uid, DEFAULT_ATTRIBUTE)
        self._content_present.discard(uid)
        self._scheduler_managed.discard(uid)
        if data is None:
            return False
        self.filesystem.delete(self.cache_path(data))
        if fire_event:
            self.event_bus.dispatch(DataEventType.DELETE, data, attr, self.env.now)
        return True

    # ------------------------------------------------------------------ RPC
    def invoke(self, service: str, method: str, *args: Any,
               **kwargs: Any) -> Generator[Event, Any, Any]:
        """Generator: call a D* service method over this agent's channel.

        The runtime's :class:`~repro.services.router.ServiceRouter` resolves
        which service instance serves the call: the classic deployment's
        single endpoint (a plain passthrough), or — under a fabric
        deployment — the live replica of the responsible shard, with
        failover retries.
        """
        return self.runtime.router.invoke(self.channel, service, method,
                                          *args, **kwargs)

    # ------------------------------------------------------------------ data movement
    def upload(self, data: Data, content: FileContent,
               protocol: Optional[str] = None
               ) -> Generator[Event, Any, Locator]:
        """Generator: push content into the repository and register its locator."""
        container = self.runtime.container
        protocol_name = protocol or self.attribute_of(data).protocol or "http"
        if self.host is container.host:
            locator = container.data_repository.store_now(data, content)
        else:
            source = self.cache_endpoint(data)
            destination = TransferEndpoint(
                host=container.host,
                filesystem=container.data_repository.filesystem,
                path=container.data_repository.path_for(data),
            )
            record = yield from self.invoke(
                "dt", "register_transfer", data, protocol_name, source, destination)
            yield from container.data_transfer.start(record)
            locator = container.data_repository.register_upload(data)
        yield from self.invoke("dc", "add_locator", locator)
        return locator

    def _select_source(
            self, data: Data, locators: List[Locator]
    ) -> Tuple[Optional[str], Optional[TransferEndpoint]]:
        """Pick a source endpoint: permanent repository copy first, then peers."""
        container = self.runtime.container
        for locator in locators:
            if locator.permanent and container.data_repository.has(data.uid) \
                    and container.host.online:
                return "repository", container.data_repository.endpoint_for(data.uid)
        for locator in locators:
            peer = self.runtime.agents.get(locator.host_name)
            if peer is not None and peer.host.online and peer.has_content(data.uid):
                return "peer", peer.cache_endpoint(data)
        return None, None

    def fetch(self, data: Data, protocol: Optional[str] = None,
              attribute: Optional[Attribute] = None
              ) -> Generator[Event, Any, Optional[FileContent]]:
        """Generator: download a datum's content into the local cache.

        Follows the paper's protocol: ask the DC for locators, the DR for the
        protocol description, register the transfer with the DT, then wait
        for the supervised transfer to finish.
        """
        attr = attribute if attribute is not None else self.attribute_of(data)
        protocol_name = protocol or attr.protocol or "http"
        record_stats = self.stats.setdefault(
            data.uid, DataTransferStats(data_uid=data.uid, data_name=data.name,
                                        size_mb=data.size_mb))
        slot = yield from self.transfer_manager.acquire_slot()
        try:
            locators = yield from self.invoke("dc", "locators_for", data.uid)
            kind, source = self._select_source(data, locators)
            if source is None:
                # Last resort: ask the Distributed Data Catalog for volatile owners.
                owners = yield from self.runtime.ddc.search(
                    data.uid, origin=self.host.name)
                for owner in owners:
                    peer = self.runtime.agents.get(owner)
                    if peer is not None and peer.host.online and peer.has_content(data.uid):
                        kind, source = "peer", peer.cache_endpoint(data)
                        break
            if source is None:
                raise DataNotFoundError(
                    f"no live copy of {data.name!r} ({data.uid}) is reachable")
            if kind == "repository":
                description = yield from self.invoke(
                    "dr", "describe_protocol", data.uid, protocol_name)
                protocol_name = description.protocol
            destination = self.cache_endpoint(data)
            container = self.runtime.container
            record = yield from self.invoke(
                "dt", "register_transfer", data, protocol_name, source, destination)
            record_stats.download_started_at = self.env.now
            yield from container.data_transfer.start(record)
            record_stats.download_completed_at = self.env.now
            record_stats.size_mb = data.size_mb
        finally:
            self.transfer_manager.release_slot(slot)
        self.register_local(data, content_present=True)
        return self.filesystem.read(self.cache_path(data))

    # ------------------------------------------------------------------ pull model
    def sync_view(self) -> Set[str]:
        """The cache view presented to the Data Scheduler (Δk).

        Reservoir hosts present their whole cache; client hosts only present
        the data the scheduler governs on them (pinned data and previous
        assignments), so that data they merely created and uploaded is not
        mistaken for a reservoir replica.
        """
        if self.reservoir:
            return self.cached_uids()
        return {uid for uid in self._scheduler_managed if uid in self._local_data}

    def sync_once(self) -> Generator[Event, Any, Any]:
        """Generator: one synchronisation with the Data Scheduler (Algorithm 1).

        Newly assigned data is downloaded concurrently (bounded by the
        TransferManager's concurrency level); each completed download is
        published in the Distributed Data Catalog, confirmed to the Data
        Scheduler and announced to the local life-cycle handlers.
        """
        result = yield from self.invoke(
            "ds", "synchronize", self.host.name, self.sync_view(),
            reservoir=self.reservoir, max_new=self.max_data_schedule)
        attr_map = {d.uid: (d, a) for d, a in result.assigned}
        for uid in attr_map:
            self.mark_managed(uid)

        for uid in result.to_delete:
            if self.is_managed(uid):
                self.remove_local(uid, fire_event=True)

        downloads: List[Process] = []
        for uid in result.to_download:
            pair = attr_map.get(uid)
            if pair is None:
                continue
            data, attr = pair
            stats = self.stats.setdefault(
                uid, DataTransferStats(data_uid=uid, data_name=data.name,
                                       size_mb=data.size_mb))
            if stats.assigned_at is None:
                stats.assigned_at = self.env.now
            self.set_attribute(data, attr)
            if self.has_content(uid):
                self.register_local(data, content_present=True)
                continue
            downloads.append(self.env.process(self._download_assigned(data, attr)))
        if downloads:
            yield self.env.all_of(downloads)
        return result

    def _download_assigned(self, data: Data, attr: Attribute
                           ) -> Generator[Event, Any, bool]:
        """Generator: fetch one scheduler-assigned datum and acknowledge it."""
        try:
            yield from self.fetch(data, protocol=attr.protocol, attribute=attr)
        except (TransferAbortedError, DataNotFoundError, RpcError):
            # Transient failure: the next synchronisation retries.
            return False
        yield from self.runtime.ddc.publish(data.uid, self.host.name,
                                            origin=self.host.name)
        yield from self.invoke("ds", "confirm_ownership", self.host.name, data.uid)
        self.event_bus.dispatch(DataEventType.COPY, data, attr, self.env.now)
        return True

    def sync_now(self) -> Process:
        """Kick one immediate synchronisation; returns its Process.

        Used by the scaling scenarios to model a *sync storm*: many hosts
        synchronising at the same instant.  The resulting burst of transfer
        starts lands on the same timestamp, so the network settles its
        bandwidth allocation once for the whole batch instead of once per
        flow.
        """
        return self.env.process(self.sync_once())

    def _sync_loop(self) -> Generator[Event, Any, None]:
        while self._running:
            if not self.host.online:
                # A crashed host stops synchronising until it is restarted.
                self._running = False
                break
            try:
                yield from self.sync_once()
            except RpcError:
                # The service host is down (transient fault); retry later.
                pass
            yield self.env.timeout(self.sync_period_s)

    def _heartbeat_loop(self) -> Generator[Event, Any, None]:
        """Periodic liveness heartbeats, independent of the sync/download cycle.

        A host spending minutes downloading a large file must still be seen
        as alive by the failure detector; only a real crash (host offline)
        stops the heartbeats.
        """
        period = self.runtime.container.failure_detector.heartbeat_period_s
        while self._running and self.host.online:
            try:
                yield from self.invoke("ds", "heartbeat", self.host.name,
                                       payload_kb=0.2)
            except RpcError:
                pass
            yield self.env.timeout(period)

    def start(self) -> None:
        """Start the periodic pull loop and heartbeats (idempotent)."""
        if self._running:
            return
        self._running = True
        self.env.process(self._sync_loop())
        self.env.process(self._heartbeat_loop())

    def stop(self) -> None:
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HostAgent({self.host.name}, data={len(self._local_data)})"


class BitDewEnvironment:
    """The assembled platform: services + DDC + attached hosts."""

    def __init__(
        self,
        topology: Topology,
        engine: Optional[DatabaseEngine] = None,
        registry: Optional[ProtocolRegistry] = None,
        sync_period_s: float = 1.0,
        monitor_period_s: float = 0.5,
        heartbeat_period_s: float = 1.0,
        timeout_multiplier: float = 3.0,
        max_data_schedule: int = 16,
        seed: int = 0,
        service_hosts: Optional[int] = None,
        shards: int = 1,
        service_replicas: int = 1,
        host_heartbeat_period_s: float = 1.0,
        host_timeout_multiplier: float = 3.0,
        host_sweep_period_s: float = 0.25,
        ring_vnodes: int = 16,
        domain: Optional[str] = None,
    ) -> None:
        _require_positive("sync_period_s", sync_period_s)
        self.topology = topology
        self.env: Environment = topology.env
        self.network: Network = topology.network
        self.sync_period_s = float(sync_period_s)
        self.rng = RandomStreams(seed)
        #: administrative-domain id under a federated deployment (see
        #: :mod:`repro.federation`); qualifies endpoint labels so channels
        #: from different domains never alias.  None = classic single
        #: domain, byte-identical labels.
        self.domain = domain
        # -- deployment spec ------------------------------------------------
        # ``service_hosts=N, shards=S, service_replicas=k`` deploys the D*
        # services as a fabric over the topology's first N stable service
        # hosts.  The default (one host, one shard, one replica) keeps the
        # classic single-container deployment, byte-identical to the
        # pre-fabric runtime.
        n_service = (int(service_hosts) if service_hosts is not None
                     else len(topology.service_hosts))
        if n_service > len(topology.service_hosts):
            raise ValueError(
                f"deployment asks for {n_service} service hosts but the "
                f"topology provides {len(topology.service_hosts)}")
        fabric_mode = shards > 1 or service_replicas > 1 or n_service > 1
        self.fabric: Optional[ServiceFabric]
        #: the duck-typed service surface: a single ServiceContainer or a
        #: sharded/replicated ServiceFabric presenting the same interface
        self.container: Any
        if fabric_mode:
            self.fabric = ServiceFabric(
                self.env, topology.service_hosts[:n_service], self.network,
                shards=shards, replicas=service_replicas,
                engine=engine, registry=registry,
                heartbeat_period_s=heartbeat_period_s,
                timeout_multiplier=timeout_multiplier,
                monitor_period_s=monitor_period_s,
                max_data_schedule=max_data_schedule,
                host_heartbeat_period_s=host_heartbeat_period_s,
                host_timeout_multiplier=host_timeout_multiplier,
                host_sweep_period_s=host_sweep_period_s,
                ring_vnodes=ring_vnodes,
                domain=domain,
            )
            self.container = self.fabric
            self.router = FabricRouter(self.fabric)
        else:
            self.fabric = None
            self.container = ServiceContainer(
                self.env, topology.service_host, self.network,
                engine=engine, registry=registry,
                heartbeat_period_s=heartbeat_period_s,
                timeout_multiplier=timeout_multiplier,
                monitor_period_s=monitor_period_s,
                max_data_schedule=max_data_schedule,
                domain=domain,
            )
            self.router = StaticRouter(self.container.endpoints())
        self.container.start()
        self.ddc = DistributedDataCatalog(self.env, ChordRing())
        # The service host(s) participate in the DHT so the ring is never empty.
        if self.fabric is not None:
            for host in self.fabric.hosts:
                self.ddc.join(host.name)
        else:
            self.ddc.join(topology.service_host.name)
        self.agents: Dict[str, HostAgent] = {}

    # ------------------------------------------------------------------ attachment
    def attach(self, host: Host, auto_sync: bool = True,
               channel_kind: Optional[ChannelKind] = None,
               sync_period_s: Optional[float] = None,
               reservoir: bool = True,
               max_data_schedule: Optional[int] = None) -> HostAgent:
        """Attach a host to the runtime and (optionally) start its pull loop."""
        if host.name in self.agents and self.agents[host.name].host.online:
            return self.agents[host.name]
        agent = HostAgent(self, host, channel_kind=channel_kind,
                          sync_period_s=sync_period_s, reservoir=reservoir,
                          max_data_schedule=max_data_schedule)
        self.agents[host.name] = agent
        try:
            self.ddc.join(host.name)
        except ValueError:
            pass  # re-attachment after a crash: the DHT node may still be known
        if auto_sync:
            # Desynchronise the pull loops like real deployments do.
            delay = self.rng.uniform(f"stagger-{host.name}", 0.0,
                                     agent.sync_period_s)
            def _delayed_start(agent: HostAgent = agent,
                               delay: float = delay
                               ) -> Generator[Event, Any, None]:
                yield self.env.timeout(delay)
                agent.start()
            self.env.process(_delayed_start())
        return agent

    def attach_all(self, hosts: Optional[List[Host]] = None,
                   **kwargs: Any) -> List[HostAgent]:
        """Attach every worker host of the topology (or the given list)."""
        targets = hosts if hosts is not None else self.topology.worker_hosts
        return [self.attach(host, **kwargs) for host in targets]

    def detach(self, host: Host) -> None:
        agent = self.agents.pop(host.name, None)
        if agent is not None:
            agent.stop()
            self.ddc.leave(host.name)
            self.container.failure_detector.forget(host.name)

    def kick_sync(self, hosts: Optional[List[Host]] = None) -> Event:
        """Trigger a simultaneous synchronisation of many attached hosts.

        Returns an event that triggers once every kicked synchronisation
        (and the downloads it started) has finished.  This is the batched
        counterpart of the periodic per-host pull loop: all requests hit the
        Data Scheduler at the same simulated instant and the flow network
        settles the resulting transfer storm once per timestamp.
        """
        if hosts is None:
            agents = list(self.agents.values())
        else:
            agents = [self.agent(h) for h in hosts]
        # Offline hosts cannot sync; including one would fail the whole batch.
        agents = [a for a in agents if a.host.online]
        return self.env.all_of([agent.sync_now() for agent in agents])

    def agent(self, host_or_name: Union[Host, str]) -> HostAgent:
        name = host_or_name.name if isinstance(host_or_name, Host) else host_or_name
        try:
            return self.agents[name]
        except KeyError:
            raise BitDewError(f"host {name!r} is not attached") from None

    # ------------------------------------------------------------------ convenience
    def run(self, until: Any = None) -> Any:
        """Advance the simulation (delegates to the kernel)."""
        return self.env.run(until)

    @property
    def data_catalog(self) -> Any:
        return self.container.data_catalog

    @property
    def data_repository(self) -> Any:
        return self.container.data_repository

    @property
    def data_transfer(self) -> Any:
        return self.container.data_transfer

    @property
    def data_scheduler(self) -> Any:
        return self.container.data_scheduler

    def crash_host(self, host: Host) -> None:
        """Simulate a machine crash: the host goes offline, flows abort, the
        agent's pull loop stops, and the failure detector will notice after
        the heartbeat timeout."""
        agent = self.agents.get(host.name)
        if agent is not None:
            agent.stop()
        host.fail()

    def restart_host(self, host: Host, auto_sync: bool = True) -> HostAgent:
        """Bring a crashed host back (fresh cache, like a re-installed worker)."""
        host.recover()
        self.agents.pop(host.name, None)
        return self.attach(host, auto_sync=auto_sync)

    def crash_service_host(self, host: Host) -> None:
        """Crash a fabric service host: its endpoints raise RpcError until
        the fabric's host detector declares it dead and the router reroutes
        the affected shards to live replicas (heartbeat-driven failover)."""
        host.fail()

    def recover_service_host(self, host: Host) -> None:
        """Bring a service host back; its heartbeats resume, the detector
        marks it alive and the router prefers its shards' primaries again."""
        host.recover()
