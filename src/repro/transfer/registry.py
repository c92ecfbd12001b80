"""Protocol registry: the plug-in point for out-of-band transfer protocols.

Users select a protocol through the ``protocol`` (a.k.a. ``oob``) data
attribute; the Data Transfer service resolves the name through this registry
(§3.4.2: "all of these components can be replaced and plugged-in by the
users").  The registry maps protocol names to factories so that a fresh
protocol instance can be created per platform (it needs the simulation
environment and the network), while instances are cached per registry so
that every transfer of the same platform shares protocol state (FTP server
connection slots, BitTorrent swarms, HTTP keep-alive connections).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.sim.kernel import Environment
from repro.net.flows import Network
from repro.transfer.bittorrent import BitTorrentProtocol
from repro.transfer.ftp import FTPProtocol
from repro.transfer.http import HTTPProtocol
from repro.transfer.oob import OOBTransfer

__all__ = ["ProtocolRegistry", "UnknownProtocolError", "default_registry"]

ProtocolFactory = Callable[[Environment, Network], OOBTransfer]


class UnknownProtocolError(KeyError):
    """Raised when a data attribute names a protocol nobody registered."""


class ProtocolRegistry:
    """Maps protocol names to factories and caches built instances."""

    def __init__(self, env: Environment, network: Network):
        self.env = env
        self.network = network
        self._factories: Dict[str, ProtocolFactory] = {}
        self._instances: Dict[str, OOBTransfer] = {}

    # -- registration -----------------------------------------------------------
    def register(self, name: str, factory: ProtocolFactory,
                 replace: bool = False) -> None:
        key = name.lower()
        if key in self._factories and not replace:
            raise ValueError(f"protocol {name!r} already registered")
        self._factories[key] = factory
        self._instances.pop(key, None)

    def register_instance(self, name: str, instance: OOBTransfer) -> None:
        """Register an already-built protocol instance (e.g. a tuned swarm)."""
        key = name.lower()
        self._factories[key] = lambda env, net: instance
        self._instances[key] = instance

    def names(self) -> Iterable[str]:
        return sorted(self._factories)

    def supports(self, name: str) -> bool:
        return name.lower() in self._factories

    # -- resolution ----------------------------------------------------------------
    def get(self, name: str) -> OOBTransfer:
        key = name.lower()
        instance = self._instances.get(key)
        if instance is not None:
            return instance
        factory = self._factories.get(key)
        if factory is None:
            raise UnknownProtocolError(
                f"no transfer protocol registered under {name!r}; "
                f"known protocols: {list(self.names())}"
            )
        instance = factory(self.env, self.network)
        self._instances[key] = instance
        return instance


def default_registry(env: Environment, network: Network,
                     bittorrent_mode: str = "auto") -> ProtocolRegistry:
    """The registry the paper's prototype ships: HTTP, FTP and BitTorrent."""
    protocols = ProtocolRegistry(env, network)
    protocols.register("ftp", lambda e, n: FTPProtocol(e, n))
    protocols.register("http", lambda e, n: HTTPProtocol(e, n))
    protocols.register(
        "bittorrent",
        lambda e, n: BitTorrentProtocol(e, n, mode=bittorrent_mode),
    )
    return protocols
