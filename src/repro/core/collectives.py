"""Collective data operations: sliced data, scatter, broadcast, gather.

The paper's conclusion lists the programming abstractions planned on top of
BitDew for Data Desktop Grids: "sliced data, collective communication such
as gather/scatter, and other programming abstractions, such as support for
distributed MapReduce operations".  This module implements the first two
entirely in terms of the existing attribute machinery:

* **sliced data** — :func:`slice_content` cuts a logical file into *n* slices
  and :meth:`DataCollectives.create_slices` turns them into catalogued data;
* **broadcast** — one datum scheduled with ``replica = -1``;
* **scatter** — slice *i* is directed to worker *i* through an *affinity* to
  a small per-host marker datum pinned on that worker (BitDew has no
  host-addressing primitive, and does not need one: affinity to a pinned
  datum is exactly how the paper routes results to the master);
* **gather** — the inverse: every worker schedules its datum with affinity to
  the caller's pinned collector, and :meth:`DataCollectives.gather_wait`
  blocks until all pieces arrived.

MapReduce (the remaining item on the paper's list) builds on these in
:mod:`repro.apps.mapreduce`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.storage.filesystem import FileContent
from repro.sim.kernel import Event

if TYPE_CHECKING:  # typing-only: the runtime import goes runtime -> here
    from repro.core.runtime import HostAgent

__all__ = ["DataCollectives", "ScatterPlan", "slice_content"]


def slice_content(content: FileContent, n_slices: int) -> List[FileContent]:
    """Cut a logical file into *n* contiguous slices.

    When the content carries a real payload the bytes are split; otherwise
    the slices are logical (size divided, per-slice checksums derived from
    the parent's checksum).
    """
    if n_slices <= 0:
        raise ValueError("n_slices must be positive")
    if content.payload is not None:
        payload = content.payload
        chunk = max(1, (len(payload) + n_slices - 1) // n_slices)
        slices = []
        for i in range(n_slices):
            part = payload[i * chunk:(i + 1) * chunk]
            slices.append(FileContent.from_bytes(f"{content.name}.slice{i:04d}", part))
        return slices
    size = content.size_mb / n_slices
    return [
        FileContent.from_seed(f"{content.name}.slice{i:04d}", size,
                              seed=f"{content.checksum}:{i}")
        for i in range(n_slices)
    ]


@dataclass
class ScatterPlan:
    """Book-keeping of one scatter: which slice goes to which host."""

    assignments: Dict[str, str] = field(default_factory=dict)  # data uid -> host name
    markers: Dict[str, Data] = field(default_factory=dict)      # host name -> marker

    def host_of(self, data_uid: str) -> Optional[str]:
        return self.assignments.get(data_uid)


class DataCollectives:
    """Collective operations bound to one host agent (usually the master)."""

    def __init__(self, agent: "HostAgent", protocol: str = "http") -> None:
        self.agent = agent
        self.env = agent.env
        self.protocol = protocol
        self._collector: Optional[Data] = None

    # ------------------------------------------------------------------ slices
    def create_slices(self, name: str, content: FileContent, n_slices: int
                      ) -> Generator[Event, Any, List[Data]]:
        """Generator: slice *content* and create/put one datum per slice."""
        pieces = slice_content(content, n_slices)
        datas: List[Data] = []
        for piece in pieces:
            data = yield from self.agent.bitdew.create_data(piece.name, content=piece)
            yield from self.agent.bitdew.put(data, piece, protocol=self.protocol)
            datas.append(data)
        return datas

    # ------------------------------------------------------------------ broadcast
    def broadcast(self, data: Data, protocol: Optional[str] = None,
                  lifetime_reference: Optional[str] = None
                  ) -> Generator[Event, Any, Attribute]:
        """Generator: send one datum to every reservoir host (``replica = -1``)."""
        attribute = Attribute(name=f"bcast-{data.name}", replica=-1,
                              protocol=protocol or self.protocol,
                              relative_lifetime=lifetime_reference)
        yield from self.agent.active_data.schedule(data, attribute)
        return attribute

    # ------------------------------------------------------------------ scatter
    def scatter(self, slices: Sequence[Data],
                target_agents: "Sequence[HostAgent]",
                protocol: Optional[str] = None,
                fault_tolerance: bool = True
                ) -> Generator[Event, Any, ScatterPlan]:
        """Generator: direct slice *i* to target agent *i* (round-robin if
        there are more slices than targets).

        Each target pins a tiny marker datum; the slice's affinity points at
        that marker, so the Data Scheduler routes it to exactly that host.
        Returns a :class:`ScatterPlan`.
        """
        if not target_agents:
            raise ValueError("scatter needs at least one target agent")
        plan = ScatterPlan()
        # One pinned marker per distinct target host.
        for target in target_agents:
            if target.host.name in plan.markers:
                continue
            marker = yield from target.bitdew.create_data(
                f"scatter-marker-{target.host.name}")
            yield from target.active_data.pin(
                marker, attribute=Attribute(name=f"marker-{target.host.name}"))
            plan.markers[target.host.name] = marker
        for index, data in enumerate(slices):
            target = target_agents[index % len(target_agents)]
            marker = plan.markers[target.host.name]
            attribute = Attribute(
                name=f"scatter-{data.name}", replica=1,
                fault_tolerance=fault_tolerance,
                protocol=protocol or self.protocol,
                affinity=marker.uid,
            )
            yield from self.agent.active_data.schedule(data, attribute)
            plan.assignments[data.uid] = target.host.name
        return plan

    # ------------------------------------------------------------------ gather
    def open_collector(self, name: str = "gather-collector"
                       ) -> Generator[Event, Any, Data]:
        """Generator: pin an empty collector datum on this agent's host."""
        collector = yield from self.agent.bitdew.create_data(name)
        attribute = Attribute(name=name, replica=1, protocol=self.protocol)
        yield from self.agent.active_data.pin(collector, attribute=attribute)
        self._collector = collector
        return collector

    def contribute(self, agent: "HostAgent", data: Data, content: FileContent,
                   protocol: Optional[str] = None
                   ) -> Generator[Event, Any, Attribute]:
        """Generator (worker side): send one datum towards the collector."""
        if self._collector is None:
            raise RuntimeError("open_collector() must be called first")
        yield from agent.bitdew.put(data, content, protocol=protocol or self.protocol)
        attribute = Attribute(
            name=f"gather-{data.name}", replica=1,
            protocol=protocol or self.protocol,
            affinity=self._collector.uid,
            relative_lifetime=self._collector.uid,
        )
        yield from agent.active_data.schedule(data, attribute)
        return attribute

    def gathered(self) -> List[Data]:
        """Data that has physically arrived on the collecting host so far."""
        if self._collector is None:
            return []
        arrived: List[Data] = []
        for data in self.agent.local_data():
            if data.uid == self._collector.uid:
                continue
            attr = self.agent.attribute_of(data)
            if attr.affinity == self._collector.uid and self.agent.has_content(data.uid):
                arrived.append(data)
        return arrived

    def gather_wait(self, expected: int, poll_s: float = 1.0,
                    timeout_s: float = 3600.0
                    ) -> Generator[Event, Any, List[Data]]:
        """Generator: block until *expected* contributions arrived (or timeout)."""
        deadline = self.env.now + timeout_s
        while len(self.gathered()) < expected and self.env.now < deadline:
            yield self.env.timeout(poll_s)
        return self.gathered()
