"""Client/server FTP transfer protocol (one of the paper's out-of-band
protocols, §3.4.2; the workhorse of the §4.3 distribution benchmarks).

The paper uses ProFTPD as file server and the Apache commons-net client.
FTP is a point-to-point pull: the receiver opens a control connection to the
server (login + passive-mode negotiation), then the file flows over a data
connection.  When many nodes download the same file concurrently the
server's uplink is shared among them, which is exactly the linear-in-*n*
scaling that Figures 3a and 5 show for FTP.

Constants:

``CONTROL_SETUP_S``
    Cost of opening the control connection and authenticating (a few RTTs).
``PER_FILE_OVERHEAD_S``
    Cost of the RETR/226 exchange around the data connection.

The server accepts every data connection at once: its uplink, shared among
the concurrent flows, is what limits it.
"""

from __future__ import annotations

from repro.net.flows import TransferFailed
from repro.transfer.oob import (
    BlockingOOBTransfer,
    TransferError,
    TransferHandle,
)

__all__ = ["FTPProtocol"]

CONTROL_SETUP_S = 0.05
PER_FILE_OVERHEAD_S = 0.02


class FTPProtocol(BlockingOOBTransfer):
    """FTP: point-to-point client/server pull transfers."""

    name = "ftp"

    # -- OOBTransfer interface -------------------------------------------------
    def connect(self, handle: TransferHandle):
        """Open the control connection: a couple of RTTs plus authentication."""
        latency = self.network.latency_between(handle.source.host,
                                               handle.destination.host)
        yield self.env.timeout(CONTROL_SETUP_S + 2.0 * latency)
        return True

    def disconnect(self, handle: TransferHandle):
        latency = self.network.latency_between(handle.source.host,
                                               handle.destination.host)
        yield self.env.timeout(latency)
        return True

    def _run_transfer(self, handle: TransferHandle):
        """RETR: stream the file from the source host to the destination host."""
        if not handle.source.exists():
            raise TransferError(
                f"source file {handle.source.path!r} missing on "
                f"{handle.source.host.name}"
            )
        yield self.env.timeout(PER_FILE_OVERHEAD_S)
        flow = self.network.transfer(
            handle.source.host, handle.destination.host,
            handle.content.size_mb,
            label=f"ftp:{handle.content.name}->{handle.destination.host.name}",
        )
        try:
            yield flow.done
        except TransferFailed as exc:
            raise TransferError(str(exc)) from exc
        handle.transferred_mb = handle.content.size_mb
        handle.destination.write(handle.source.read())
        return handle
