"""Host model.

A :class:`Host` is one machine in the simulated platform: a stable service
node, a client, or a volatile reservoir host.  The host carries the
capacities the network model needs (uplink/downlink in MB/s), the compute
characteristics the application models need (CPU speed factor, number of
cores), and the volatility state the scheduler's failure detector observes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sim import ids

__all__ = ["Host", "HostState", "HostSpec"]


class HostState(enum.Enum):
    """Availability state of a host."""

    ONLINE = "online"
    OFFLINE = "offline"


@dataclass
class HostSpec:
    """Static description of a host's hardware, used by topology builders.

    ``cpu_factor`` expresses relative single-core speed: 1.0 is the reference
    (the paper's 2.0 GHz Opteron 246); the gdx 2.4 GHz nodes are ~1.2, the
    grelon 1.6 GHz Xeon cores ~0.8, the DSL-Lab Pentium-M 1 GHz nodes ~0.45.
    """

    uplink_mbps: float
    downlink_mbps: float
    cpu_factor: float = 1.0
    cores: int = 2
    memory_mb: int = 2048
    disk_mb: float = float("inf")


class Host:
    """One simulated machine."""

    def __init__(
        self,
        name: str,
        cluster: str = "default",
        uplink_mbps: float = 100.0,
        downlink_mbps: float = 100.0,
        cpu_factor: float = 1.0,
        cores: int = 2,
        memory_mb: int = 2048,
        disk_mb: float = float("inf"),
        stable: bool = False,
    ):
        if uplink_mbps <= 0 or downlink_mbps <= 0:
            raise ValueError("link capacities must be positive")
        if cpu_factor <= 0:
            raise ValueError("cpu_factor must be positive")
        self.uid = next(ids.hosts)
        self.name = name
        self.cluster = cluster
        self.uplink_mbps = float(uplink_mbps)
        self.downlink_mbps = float(downlink_mbps)
        self.cpu_factor = float(cpu_factor)
        self.cores = int(cores)
        self.memory_mb = int(memory_mb)
        self.disk_mb = float(disk_mb)
        #: Stable hosts run D* services; volatile hosts are reservoirs/clients.
        self.stable = bool(stable)
        self.state = HostState.ONLINE
        #: Callbacks invoked with (host,) when the host goes offline.
        self._failure_listeners: List[Callable[["Host"], None]] = []
        #: Callbacks invoked with (host,) when the host comes back online.
        self._recovery_listeners: List[Callable[["Host"], None]] = []

    # -- state -------------------------------------------------------------
    @property
    def online(self) -> bool:
        return self.state is HostState.ONLINE

    def on_failure(self, callback: Callable[["Host"], None]) -> None:
        self._failure_listeners.append(callback)

    def on_recovery(self, callback: Callable[["Host"], None]) -> None:
        self._recovery_listeners.append(callback)

    def fail(self) -> None:
        """Mark the host offline and notify listeners (network, services)."""
        if self.state is HostState.OFFLINE:
            return
        self.state = HostState.OFFLINE
        for callback in list(self._failure_listeners):
            callback(self)

    def recover(self) -> None:
        """Bring the host back online (transient-fault model for service nodes)."""
        if self.state is HostState.ONLINE:
            return
        self.state = HostState.ONLINE
        for callback in list(self._recovery_listeners):
            callback(self)

    # -- compute model -----------------------------------------------------
    def compute_time(self, reference_seconds: float) -> float:
        """Wall-clock time on this host for work taking ``reference_seconds``
        on the reference CPU (single-core, cpu_factor == 1.0)."""
        if reference_seconds < 0:
            raise ValueError("reference_seconds must be non-negative")
        return reference_seconds / self.cpu_factor

    def __repr__(self) -> str:
        role = "stable" if self.stable else "volatile"
        return (
            f"Host({self.name!r}, cluster={self.cluster!r}, {role}, "
            f"up={self.uplink_mbps}MB/s, down={self.downlink_mbps}MB/s, "
            f"{self.state.value})"
        )

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other
