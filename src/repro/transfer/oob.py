"""The out-of-band transfer plug-in framework (paper §3.4.2, Figure 2).

To plug a new file-transfer protocol into BitDew a programmer implements the
``OOBTransfer`` interface — seven methods: ``connect``, ``disconnect``,
``probe``, and send/receive from the sender and receiver sides, in blocking
or non-blocking flavours.  Protocols shipped as background daemons (the BTPD
BitTorrent client in the paper) use the ``DaemonConnector`` helper.

Here the "wire" is the flow-level network of :mod:`repro.net`; a transfer
moves a :class:`~repro.storage.filesystem.FileContent` from a source
endpoint (host + local file system + path) to a destination endpoint.  The
:class:`TransferHandle` tracks progress, supports probing (the
receiver-driven reliability check: size + MD5), and carries the completion
event the :class:`~repro.services.data_transfer.DataTransferService` waits
on.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Optional

from repro.sim import ids
from repro.sim.kernel import Environment
from repro.net.flows import Network
from repro.net.host import Host
from repro.storage.filesystem import FileContent, LocalFileSystem

__all__ = [
    "BlockingOOBTransfer",
    "DaemonConnector",
    "NonBlockingOOBTransfer",
    "OOBTransfer",
    "TransferEndpoint",
    "TransferError",
    "TransferHandle",
    "TransferState",
]


class TransferError(RuntimeError):
    """Raised when an out-of-band transfer fails definitively."""


class TransferState(enum.Enum):
    """Life cycle of one out-of-band transfer."""

    PENDING = "pending"
    CONNECTING = "connecting"
    TRANSFERRING = "transferring"
    COMPLETE = "complete"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class TransferEndpoint:
    """One side of a transfer: a host, its local file system and a path."""

    host: Host
    filesystem: LocalFileSystem
    path: str

    def read(self) -> FileContent:
        return self.filesystem.read(self.path)

    def write(self, content: FileContent) -> FileContent:
        return self.filesystem.write(self.path, content)

    def exists(self) -> bool:
        return self.filesystem.exists(self.path)


class TransferHandle:
    """Book-keeping for one transfer: state, progress, completion event."""

    def __init__(self, env: Environment, content: FileContent,
                 source: TransferEndpoint, destination: TransferEndpoint,
                 protocol: str):
        self.tid = next(ids.handles)
        self.env = env
        self.content = content
        self.source = source
        self.destination = destination
        self.protocol = protocol
        self.state = TransferState.PENDING
        self.transferred_mb = 0.0
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.error: Optional[str] = None
        self.attempts = 0
        #: Fires with the handle on success, or fails with TransferError.
        self.done = env.event()

    # -- progress -----------------------------------------------------------
    @property
    def size_mb(self) -> float:
        return self.content.size_mb

    @property
    def progress(self) -> float:
        """Fraction completed in [0, 1]."""
        if self.size_mb <= 0:
            return 1.0 if self.state is TransferState.COMPLETE else 0.0
        return min(1.0, self.transferred_mb / self.size_mb)

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def throughput_mbps(self) -> Optional[float]:
        dur = self.duration
        if dur is None or dur <= 0:
            return None
        return self.transferred_mb / dur

    # -- probing (receiver-driven reliability, §3.4.2) ------------------------
    def probe(self) -> TransferState:
        """Check the receiver side: size and MD5 of what has landed so far."""
        if self.state is TransferState.COMPLETE and self.destination.exists():
            received = self.destination.read()
            if not self.content.verify(received):
                self.state = TransferState.FAILED
                self.error = "integrity check failed (MD5 mismatch)"
        return self.state

    # -- completion ------------------------------------------------------------
    def _complete(self) -> None:
        if self.state is TransferState.CANCELLED:
            return  # a cancelled transfer stays cancelled even if bytes landed
        self.state = TransferState.COMPLETE
        self.transferred_mb = self.size_mb
        self.end_time = self.env.now
        if not self.done.triggered:
            self.done.succeed(self)

    def _fail(self, reason: str) -> None:
        if self.state is TransferState.CANCELLED:
            return
        self.state = TransferState.FAILED
        self.error = reason
        self.end_time = self.env.now
        if not self.done.triggered:
            self.done.fail(TransferError(reason))
            self.done.defused = True

    def cancel(self, reason: str = "cancelled") -> None:
        if self.state in (TransferState.COMPLETE, TransferState.FAILED):
            return
        self.state = TransferState.CANCELLED
        self.error = reason
        self.end_time = self.env.now
        if not self.done.triggered:
            self.done.fail(TransferError(reason))
            self.done.defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransferHandle(#{self.tid} {self.protocol} "
            f"{self.source.host.name}->{self.destination.host.name} "
            f"{self.content.name} {self.state.value})"
        )


class OOBTransfer(abc.ABC):
    """The seven-method plug-in interface of Figure 2.

    Concrete protocols subclass :class:`BlockingOOBTransfer` or
    :class:`NonBlockingOOBTransfer` and implement ``_run_transfer`` (the
    protocol-specific data movement, written as a simulation process).
    """

    #: protocol name used in data attributes (e.g. ``protocol="bittorrent"``)
    name: str = "oob"
    #: whether the protocol is provided as a library or as a daemon
    daemon_based: bool = False

    def __init__(self, env: Environment, network: Network):
        self.env = env
        self.network = network

    # -- the 7 methods ---------------------------------------------------------
    @abc.abstractmethod
    def connect(self, handle: TransferHandle):
        """Generator: open the protocol connection (control channel, tracker...)."""

    @abc.abstractmethod
    def disconnect(self, handle: TransferHandle):
        """Generator: close the protocol connection."""

    def probe(self, handle: TransferHandle) -> TransferState:
        """Poll the transfer state (receiver-driven check)."""
        return handle.probe()

    def blocking_send(self, handle: TransferHandle):
        """Generator: sender side, returns when the transfer completes."""
        yield from self._drive(handle)
        return handle

    def blocking_receive(self, handle: TransferHandle):
        """Generator: receiver side, returns when the transfer completes."""
        yield from self._drive(handle)
        return handle

    def non_blocking_send(self, handle: TransferHandle) -> TransferHandle:
        """Start the sender side and return immediately; wait on ``handle.done``."""
        self.env.process(self._drive(handle))
        return handle

    def non_blocking_receive(self, handle: TransferHandle) -> TransferHandle:
        """Start the receiver side and return immediately; wait on ``handle.done``."""
        self.env.process(self._drive(handle))
        return handle

    # -- handle creation ---------------------------------------------------------
    def create_handle(self, content: FileContent, source: TransferEndpoint,
                      destination: TransferEndpoint) -> TransferHandle:
        return TransferHandle(self.env, content, source, destination, self.name)

    # -- protocol driver ----------------------------------------------------------
    def _drive(self, handle: TransferHandle):
        """Run connect -> transfer -> disconnect, updating the handle state."""
        if handle.state not in (TransferState.PENDING, TransferState.FAILED):
            raise TransferError(f"handle #{handle.tid} already driven")
        handle.attempts += 1
        handle.state = TransferState.CONNECTING
        handle.start_time = self.env.now if handle.start_time is None else handle.start_time
        try:
            yield from self.connect(handle)
            handle.state = TransferState.TRANSFERRING
            yield from self._run_transfer(handle)
            yield from self.disconnect(handle)
        except TransferError as exc:
            handle._fail(str(exc))
            return handle
        # Receiver-driven integrity verification before declaring success.
        if not handle.destination.exists() or not handle.content.verify(
            handle.destination.read()
        ):
            handle._fail("integrity check failed (MD5 mismatch)")
            return handle
        handle._complete()
        return handle

    @abc.abstractmethod
    def _run_transfer(self, handle: TransferHandle):
        """Generator: move the bytes (protocol specific)."""


class BlockingOOBTransfer(OOBTransfer):
    """Base class for protocols whose native API is blocking (FTP, HTTP libs)."""

    blocking = True


class NonBlockingOOBTransfer(OOBTransfer):
    """Base class for protocols whose native API is asynchronous."""

    blocking = False


class DaemonConnector:
    """Helper for protocols provided as a background daemon (paper Figure 2).

    The daemon must be started before any transfer and contacted through a
    small local-IPC latency.  BTPD in the paper is such a daemon; the
    BitTorrent protocol below uses this connector when configured in daemon
    mode.
    """

    def __init__(self, env: Environment, startup_cost_s: float = 0.5,
                 ipc_latency_s: float = 0.002):
        self.env = env
        self.startup_cost_s = float(startup_cost_s)
        self.ipc_latency_s = float(ipc_latency_s)
        self._started_hosts: set = set()

    def ensure_started(self, host: Host):
        """Generator: start the daemon on *host* if not already running."""
        if host.uid not in self._started_hosts:
            yield self.env.timeout(self.startup_cost_s)
            self._started_hosts.add(host.uid)
        return True

    def is_started(self, host: Host) -> bool:
        return host.uid in self._started_hosts

    def stop(self, host: Host) -> None:
        self._started_hosts.discard(host.uid)

    def command(self):
        """Generator: one IPC round trip with the daemon."""
        yield self.env.timeout(self.ipc_latency_s)
        return True
