"""HTTP transfer protocol (one of the paper's out-of-band protocols, §3.4.2).

HTTP GET from a web server: functionally the same point-to-point pull as
FTP but with a much lighter connection setup (a single request/response
exchange, connections kept alive), which makes it the protocol of choice for
the small files of the BLAST application (Sequences and Results, §5).
"""

from __future__ import annotations

from repro.sim.kernel import Environment
from repro.net.flows import Network, TransferFailed
from repro.transfer.oob import (
    BlockingOOBTransfer,
    TransferError,
    TransferHandle,
)

__all__ = ["HTTPProtocol"]

REQUEST_OVERHEAD_S = 0.005


class HTTPProtocol(BlockingOOBTransfer):
    """HTTP: light-weight point-to-point pull transfers."""

    name = "http"

    def __init__(self, env: Environment, network: Network):
        super().__init__(env, network)
        #: (client uid, server uid) pairs with an established keep-alive connection
        self._connections: set = set()

    def _conn_key(self, handle: TransferHandle):
        return (handle.destination.host.uid, handle.source.host.uid)

    # -- OOBTransfer interface ---------------------------------------------------
    def connect(self, handle: TransferHandle):
        latency = self.network.latency_between(handle.source.host,
                                               handle.destination.host)
        key = self._conn_key(handle)
        if key in self._connections:
            return True
        # TCP handshake: one round trip.
        yield self.env.timeout(2.0 * latency)
        self._connections.add(key)
        return True

    def disconnect(self, handle: TransferHandle):
        # The connection is kept alive for the next request; no simulated cost.
        return True
        yield  # pragma: no cover - makes this a generator

    def _run_transfer(self, handle: TransferHandle):
        if not handle.source.exists():
            raise TransferError(
                f"source file {handle.source.path!r} missing on "
                f"{handle.source.host.name}"
            )
        yield self.env.timeout(REQUEST_OVERHEAD_S)
        flow = self.network.transfer(
            handle.source.host, handle.destination.host,
            handle.content.size_mb,
            label=f"http:{handle.content.name}->{handle.destination.host.name}",
        )
        try:
            yield flow.done
        except TransferFailed as exc:
            raise TransferError(str(exc)) from exc
        handle.transferred_mb = handle.content.size_mb
        handle.destination.write(handle.source.read())
        return handle
