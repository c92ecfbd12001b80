"""Data Transfer service (DT, paper §3.4.2).

The DT "launches out-of-band transfers and ensures their reliability":

* transfers are always initiated towards the DT by a reservoir or client
  host;
* the transfer itself is performed by a pluggable protocol (FTP, HTTP,
  BitTorrent) resolved through the protocol registry;
* reliability is *receiver driven*: the DT periodically probes the receiver,
  which can verify the size and MD5 of what it has received; a transfer is
  declared finished only at the probe following the protocol's completion;
* faulty transfers are retried (resumed) up to ``MAX_RETRIES`` attempts
  before being reported failed;
* the monitoring traffic itself consumes bandwidth on the service host.
  Each supervised transfer adds ``MONITOR_MESSAGE_KB`` every
  ``monitor_period_s`` in both directions; this is the BitDew protocol
  overhead that Figures 3b/3c quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.data import Data
from repro.core.exceptions import TransferAbortedError
from repro.net.flows import Network
from repro.net.host import Host
from repro.sim import ids
from repro.sim.kernel import Environment
from repro.transfer.oob import (
    CANCELLED,
    COMPLETE,
    FAILED,
    OOBTransfer,
    TransferEndpoint,
    TransferHandle,
)
from repro.transfer.registry import ProtocolRegistry

__all__ = ["DataTransferService", "SupervisedTransfer"]

#: Size of one monitoring probe (and of its reply).
MONITOR_MESSAGE_KB = 8.0
#: Attempts of one transfer before it is reported failed.
MAX_RETRIES = 3


@dataclass
class SupervisedTransfer:
    """The DT's view of one supervised (monitored, retried) transfer."""

    tid: int
    data: Data
    protocol: str
    source: TransferEndpoint
    destination: TransferEndpoint
    handle: Optional[TransferHandle] = None
    attempts: int = 0
    submitted_at: float = 0.0
    completed_at: Optional[float] = None
    failed: bool = False
    error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.completed_at is not None or self.failed

    @property
    def elapsed(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class DataTransferService:
    """Launches, monitors and retries out-of-band transfers."""

    def __init__(
        self,
        env: Environment,
        host: Host,
        network: Network,
        registry: ProtocolRegistry,
        monitor_period_s: float = 0.5,
    ):
        if not monitor_period_s > 0:
            raise ValueError(
                f"monitor_period_s must be positive, got {monitor_period_s!r}")
        self.env = env
        self.host = host
        self.network = network
        self.registry = registry
        self.monitor_period_s = float(monitor_period_s)
        self.transfers: Dict[int, SupervisedTransfer] = {}
        #: statistics used for overhead accounting
        self.requests = 0
        self.monitor_messages = 0
        self.retries = 0
        self.total_mb_moved = 0.0

    # -- bandwidth accounting of the monitoring traffic ----------------------------
    @property
    def _monitor_rate_mbps(self) -> float:
        """Control-plane rate of one supervised transfer on the DT's uplink."""
        # request + response every monitor period
        return 2.0 * (MONITOR_MESSAGE_KB / 1024.0) / self.monitor_period_s

    def _reserve_monitor_bandwidth(self) -> None:
        self.network.add_background_load(self.host, "up", self._monitor_rate_mbps)
        self.network.add_background_load(self.host, "down", self._monitor_rate_mbps)

    def _release_monitor_bandwidth(self) -> None:
        self.network.remove_background_load(self.host, "up", self._monitor_rate_mbps)
        self.network.remove_background_load(self.host, "down", self._monitor_rate_mbps)

    # -- the service protocol ---------------------------------------------------------
    def register_transfer(self, data: Data, protocol: str,
                          source: TransferEndpoint,
                          destination: TransferEndpoint) -> SupervisedTransfer:
        """Register a transfer with the DT (the client then waits on it)."""
        self.requests += 1
        record = SupervisedTransfer(
            tid=next(ids.transfers), data=data, protocol=protocol,
            source=source, destination=destination, submitted_at=self.env.now,
        )
        self.transfers[record.tid] = record
        return record

    def start(self, record: SupervisedTransfer):
        """Generator: run the transfer under supervision until success/failure.

        Returns the record; raises :class:`TransferAbortedError` after the
        retry budget is exhausted.
        """
        protocol = self.registry.get(record.protocol)
        self._reserve_monitor_bandwidth()
        try:
            last_error = "unknown error"
            for attempt in range(1, MAX_RETRIES + 1):
                record.attempts = attempt
                if attempt > 1:
                    self.retries += 1
                try:
                    content = self._content_of(record)
                except TransferAbortedError as exc:
                    record.failed = True
                    record.error = str(exc)
                    raise
                handle = protocol.create_handle(
                    content=content,
                    source=record.source, destination=record.destination,
                )
                record.handle = handle
                protocol.non_blocking_receive(handle)
                result = yield from self._monitor(record, handle, protocol)
                if result and not self._matches_catalog_checksum(record):
                    # The bytes arrived intact from the source, but the source
                    # itself does not match the datum's registered MD5
                    # signature (corrupted or tampered copy): reject it.
                    result = False
                    handle.error = ("received content does not match the "
                                    "datum's MD5 signature")
                if result:
                    record.completed_at = self.env.now
                    self.total_mb_moved += handle.content.size_mb
                    return record
                last_error = handle.error or "transfer failed"
                if not record.destination.host.online:
                    # No point retrying towards a dead host.
                    break
            record.failed = True
            record.error = last_error
            raise TransferAbortedError(
                f"transfer #{record.tid} of {record.data.name!r} to "
                f"{record.destination.host.name} failed after "
                f"{record.attempts} attempt(s): {last_error}"
            )
        finally:
            self._release_monitor_bandwidth()

    def submit(self, data: Data, protocol: str, source: TransferEndpoint,
               destination: TransferEndpoint):
        """Generator: register + start in one call (the common client path)."""
        record = self.register_transfer(data, protocol, source, destination)
        result = yield from self.start(record)
        return result

    def _matches_catalog_checksum(self, record: SupervisedTransfer) -> bool:
        """Receiver-driven integrity check against the datum's registered MD5."""
        data = record.data
        if not data.has_content:
            return True  # nothing registered to check against
        if not record.destination.exists():
            return False
        return data.matches_content(record.destination.read())

    def _content_of(self, record: SupervisedTransfer):
        source = record.source
        if not source.exists():
            raise TransferAbortedError(
                f"source content for {record.data.name!r} is missing on "
                f"{source.host.name}")
        return source.read()

    def _monitor(self, record: SupervisedTransfer, handle: TransferHandle,
                 protocol: OOBTransfer):
        """Generator: receiver-driven polling until the transfer settles."""
        while True:
            yield self.env.timeout(self.monitor_period_s)
            self.monitor_messages += 2  # request towards the receiver + reply
            state = protocol.probe(handle)
            if state is COMPLETE:
                return True
            if state is FAILED or state is CANCELLED:
                return False
            if not record.destination.host.online:
                handle.cancel("receiver went offline")
                return False

    # -- reporting --------------------------------------------------------------------
    def pending_transfers(self) -> List[SupervisedTransfer]:
        return [t for t in self.transfers.values() if not t.finished]

    def completed_transfers(self) -> List[SupervisedTransfer]:
        return [t for t in self.transfers.values() if t.completed_at is not None]

    def bandwidth_report(self) -> Dict[str, float]:
        """Aggregate throughput statistics (the DT 'reports on bandwidth')."""
        completed = self.completed_transfers()
        if not completed:
            return {"transfers": 0, "total_mb": 0.0, "mean_throughput_mbps": 0.0}
        throughputs = []
        for record in completed:
            elapsed = record.elapsed
            if elapsed and elapsed > 0:
                throughputs.append(record.data.size_mb / elapsed)
        return {
            "transfers": float(len(completed)),
            "total_mb": self.total_mb_moved,
            "mean_throughput_mbps": (
                sum(throughputs) / len(throughputs) if throughputs else 0.0
            ),
        }
