"""Distributed MapReduce on top of BitDew (the paper's future-work item).

The conclusion of the paper announces "support for distributed MapReduce
operations" as the next programming abstraction to be built on BitDew (the
authors later published exactly that system).  This module implements the
abstraction with nothing but the collective operations of
:mod:`repro.core.collectives` and the attribute machinery:

1. the **input** is sliced and *scattered* to the mappers (affinity to
   per-host markers);
2. every mapper runs the user's ``map`` function on its slice's payload and
   produces one intermediate datum per reducer partition (hash partitioning
   on the key), *scattered* to the reducers the same way — this is the
   shuffle, expressed purely as data placement;
3. every reducer merges its partitions with the user's ``reduce`` function
   and *gathers* its output to the master's collector;
4. the master merges the reducer outputs into the final result.

Because the simulation's logical files can carry real (small) payloads, the
map and reduce functions actually execute — the default job is a word count —
while the transfer and compute costs are charged through the simulated
platform like any other BitDew application.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.attributes import Attribute
from repro.core.collectives import DataCollectives
from repro.core.data import Data
from repro.core.exceptions import BitDewError
from repro.core.events import ActiveDataEventHandler
from repro.core.runtime import BitDewEnvironment, HostAgent
from repro.net.host import Host
from repro.storage.filesystem import FileContent

__all__ = ["MapReduceJob", "MapReduceResult", "word_count_map", "word_count_reduce"]

#: Reference compute seconds of one reduce task per 100 distinct keys.
REDUCE_COST_S_PER_PARTITION = 0.5

MapFunction = Callable[[bytes], Iterable[Tuple[str, int]]]
ReduceFunction = Callable[[str, List[int]], int]


def word_count_map(payload: bytes) -> Iterable[Tuple[str, int]]:
    """The canonical example: emit (word, 1) for every word in the slice."""
    for word in payload.decode("utf-8", errors="ignore").split():
        yield word.lower(), 1


def word_count_reduce(key: str, values: List[int]) -> int:
    return sum(values)


@dataclass
class MapReduceResult:
    """Outcome of a job: the merged dictionary plus execution statistics."""

    output: Dict[str, int]
    map_tasks: int
    reduce_tasks: int
    makespan_s: float
    intermediate_data: int
    map_failures: int = 0


class _MapperHandler(ActiveDataEventHandler):
    def __init__(self, job: "MapReduceJob", agent: HostAgent):
        self.job = job
        self.agent = agent

    def on_data_copy_event(self, data: Data, attribute: Attribute) -> None:
        if data.uid in self.job._map_slices:
            self.agent.env.process(self.job._run_map(self.agent, data))


class _ReducerHandler(ActiveDataEventHandler):
    def __init__(self, job: "MapReduceJob", agent: HostAgent, partition: int):
        self.job = job
        self.agent = agent
        self.partition = partition

    def on_data_copy_event(self, data: Data, attribute: Attribute) -> None:
        if attribute.name.startswith("scatter-part-"):
            self.job._note_partition_arrival(self.partition, self.agent, data)


class MapReduceJob:
    """One MapReduce job over a BitDew runtime.

    The programming abstraction the paper's conclusion announces as future
    work, expressed with the §5 idioms only: scatter for slice placement,
    attribute affinity for the shuffle, gather through a pinned Collector.
    """

    def __init__(
        self,
        runtime: BitDewEnvironment,
        master_host: Host,
        input_payload: bytes,
        n_map_slices: int = 4,
        n_reducers: int = 2,
        map_function: MapFunction = word_count_map,
        reduce_function: ReduceFunction = word_count_reduce,
        map_cost_s_per_mb: float = 2.0,
        protocol: str = "http",
        straggler_grace_s: Optional[float] = None,
    ):
        if n_map_slices <= 0 or n_reducers <= 0:
            raise ValueError("n_map_slices and n_reducers must be positive")
        if straggler_grace_s is not None and straggler_grace_s <= 0:
            raise ValueError("straggler_grace_s must be positive (or None)")
        self.runtime = runtime
        self.master = runtime.attach(master_host, reservoir=False,
                                     max_data_schedule=64)
        self.collectives = DataCollectives(self.master, protocol=protocol)
        self.input_payload = input_payload
        self.n_map_slices = n_map_slices
        self.n_reducers = n_reducers
        self.map_function = map_function
        self.reduce_function = reduce_function
        self.map_cost_s_per_mb = map_cost_s_per_mb
        self.protocol = protocol
        #: with a grace period set, reducers give up waiting for map tasks
        #: that make no progress (e.g. their host crashed) and reduce what
        #: arrived; ``None`` keeps the strict wait-for-every-map behaviour.
        self.straggler_grace_s = straggler_grace_s
        self._progress_at: Optional[float] = None

        self.mappers: List[HostAgent] = []
        self.reducers: List[HostAgent] = []
        self._map_slices: Dict[str, FileContent] = {}
        self._pending_partitions: Dict[int, List[Tuple[HostAgent, Data]]] = {}
        self._reduce_started: set = set()
        self._reduce_outputs: Dict[int, Dict[str, int]] = {}
        self.maps_done = 0
        self.maps_failed = 0
        self.intermediate_count = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # ------------------------------------------------------------------ deployment
    def assign_workers(self, hosts: Optional[Sequence[Host]] = None) -> None:
        """Split the worker hosts into mappers and reducers and install handlers."""
        targets = list(hosts) if hosts is not None else [
            h for h in self.runtime.topology.worker_hosts
            if h is not self.master.host]
        if len(targets) < 2:
            raise ValueError("MapReduce needs at least two worker hosts")
        n_reduce_hosts = min(self.n_reducers, max(1, len(targets) // 2))
        reducer_hosts = targets[:n_reduce_hosts]
        mapper_hosts = targets[n_reduce_hosts:] or reducer_hosts
        self.reducers = [self.runtime.attach(h) for h in reducer_hosts]
        self.mappers = [self.runtime.attach(h) for h in mapper_hosts]
        for agent in self.mappers:
            agent.active_data.add_callback(_MapperHandler(self, agent))
        for index, agent in enumerate(self.reducers):
            agent.active_data.add_callback(_ReducerHandler(self, agent, index))

    # ------------------------------------------------------------------ master program
    def start(self):
        """Generator: slice the input, scatter to mappers, open the collector."""
        if not self.mappers:
            self.assign_workers()
        self.started_at = self.runtime.env.now
        slices = self._split_input(self.input_payload, self.n_map_slices)
        datas = []
        for piece in slices:
            data = yield from self.master.bitdew.create_data(piece.name, content=piece)
            yield from self.master.bitdew.put(data, piece, protocol=self.protocol)
            self._map_slices[data.uid] = piece
            datas.append(data)
        yield from self.collectives.open_collector("mapreduce-collector")
        plan = yield from self.collectives.scatter(datas, self.mappers,
                                                   protocol=self.protocol)
        # Reducers need routing markers too: the mappers' intermediate
        # partitions are directed to them through the same affinity idiom.
        marked_hosts = set(plan.markers)
        for reducer in self.reducers:
            if reducer.host.name in marked_hosts:
                continue
            marked_hosts.add(reducer.host.name)
            marker_name = f"scatter-marker-{reducer.host.name}"
            marker = yield from reducer.bitdew.create_data(marker_name)
            yield from reducer.active_data.pin(
                marker, attribute=Attribute(name=marker_name))
        return datas

    @staticmethod
    def _split_input(payload: bytes, n_slices: int) -> List[FileContent]:
        """Split the input near equal sizes but only at whitespace boundaries,
        so that no record (word/line) is cut across two map slices."""
        if n_slices <= 1 or len(payload) == 0:
            return [FileContent.from_bytes("mapreduce-input.slice0000", payload)]
        target = max(1, len(payload) // n_slices)
        slices: List[FileContent] = []
        start = 0
        for index in range(n_slices - 1):
            cut = min(len(payload), start + target)
            # Advance the cut to the next whitespace (or the end).
            while cut < len(payload) and not payload[cut:cut + 1].isspace():
                cut += 1
            slices.append(FileContent.from_bytes(
                f"mapreduce-input.slice{index:04d}", payload[start:cut]))
            start = cut
        slices.append(FileContent.from_bytes(
            f"mapreduce-input.slice{n_slices - 1:04d}", payload[start:]))
        return [s for s in slices]

    # ------------------------------------------------------------------ map side
    def _partition_of(self, key: str) -> int:
        # crc32, not hash(): partitioning must not depend on PYTHONHASHSEED,
        # or two runs of the same seeded scenario shuffle differently.
        return zlib.crc32(key.encode("utf-8")) % self.n_reducers

    def _run_map(self, agent: HostAgent, data: Data):
        """Generator: run the user's map function on one slice."""
        piece = agent.local_content(data.uid)
        if piece is None or piece.payload is None:
            return None
        # Simulated CPU cost proportional to the slice size.
        yield agent.env.timeout(agent.host.compute_time(
            self.map_cost_s_per_mb * max(piece.size_mb, 0.001)))
        partitions: Dict[int, Dict[str, List[int]]] = {}
        for key, value in self.map_function(piece.payload):
            partitions.setdefault(self._partition_of(key), {}).setdefault(
                key, []).append(value)
        # Publish one intermediate datum per non-empty partition, scattered to
        # the responsible reducer.  A mapper whose host crashes mid-publish
        # loses the rest of its partitions (its map task is partially lost),
        # but must not take the whole simulation down — the failure is
        # counted so the reducers' wait loop still terminates.
        try:
            yield from self._publish_partitions(agent, data, partitions)
        except BitDewError:
            self.maps_failed += 1
            self._progress_at = agent.env.now
            return None
        self.maps_done += 1
        self._progress_at = agent.env.now
        return len(partitions)

    def _publish_partitions(self, agent: HostAgent, data: Data,
                            partitions: Dict[int, Dict[str, List[int]]]):
        """Generator: upload + schedule one datum per non-empty partition."""
        for partition, pairs in partitions.items():
            reducer = self.reducers[partition % len(self.reducers)]
            payload = json.dumps(pairs, sort_keys=True).encode("utf-8")
            inter_content = FileContent.from_bytes(
                f"part-{partition:03d}-{data.name}-{agent.host.name}", payload)
            inter = yield from agent.bitdew.create_data(inter_content.name,
                                                        content=inter_content)
            yield from agent.bitdew.put(inter, inter_content, protocol=self.protocol)
            attribute = Attribute(
                name=f"scatter-part-{partition:03d}", replica=1,
                fault_tolerance=True, protocol=self.protocol,
                affinity=f"scatter-marker-{reducer.host.name}",
            )
            yield from agent.active_data.schedule(inter, attribute)
            self.intermediate_count += 1

    # ------------------------------------------------------------------ reduce side
    def _note_partition_arrival(self, partition: int, agent: HostAgent,
                                data: Data) -> None:
        self._pending_partitions.setdefault(partition, []).append((agent, data))
        if partition not in self._reduce_started:
            self._reduce_started.add(partition)
            agent.env.process(self._run_reduce(partition, agent))

    def _run_reduce(self, partition: int, agent: HostAgent):
        """Generator: merge every partition file for *partition* and reduce."""
        # Wait until every map task finished, then one extra sync period so
        # that straggling partition files have time to land in the cache.
        # Under churn a mapper may never finish (its host crashed before the
        # slice arrived); with a straggler grace period the reducer stops
        # waiting once map progress has stalled for that long.  Maps whose
        # publish failed count as resolved, so a mid-publish crash cannot
        # stall the strict (no-grace) wait until the deadline.
        while self.maps_done + self.maps_failed < len(self._map_slices):
            if (self.straggler_grace_s is not None
                    and agent.env.now - (self._progress_at
                                         or self.started_at or 0.0)
                    > self.straggler_grace_s):
                break
            yield agent.env.timeout(agent.sync_period_s)
        yield agent.env.timeout(2.0 * agent.sync_period_s)
        merged: Dict[str, List[int]] = {}
        for owner, data in self._pending_partitions.get(partition, []):
            content = owner.local_content(data.uid)
            if content is None or content.payload is None:
                continue
            for key, values in json.loads(content.payload.decode("utf-8")).items():
                merged.setdefault(key, []).extend(values)
        yield agent.env.timeout(agent.host.compute_time(
            REDUCE_COST_S_PER_PARTITION * max(1, len(merged)) / 100.0))
        reduced = {key: self.reduce_function(key, values)
                   for key, values in merged.items()}
        self._reduce_outputs[partition] = reduced
        payload = json.dumps(reduced, sort_keys=True).encode("utf-8")
        out_content = FileContent.from_bytes(f"reduce-out-{partition:03d}", payload)
        out = yield from agent.bitdew.create_data(out_content.name,
                                                  content=out_content)
        yield from self.collectives.contribute(agent, out, out_content,
                                               protocol=self.protocol)
        return reduced

    # ------------------------------------------------------------------ completion
    @property
    def reduces_done(self) -> int:
        return len(self._reduce_outputs)

    def run(self, deadline_s: float = 10_000.0, poll_s: float = 5.0) -> MapReduceResult:
        """Drive the simulation until the job finishes and merge the output."""
        env = self.runtime.env
        start_proc = env.process(self.start())
        env.run(until=start_proc)
        while env.now < deadline_s and self.reduces_done < min(
                self.n_reducers, len(self.reducers)):
            env.run(until=env.now + poll_s)
        # Let the reducer outputs travel to the master's collector.
        target = min(self.n_reducers, len(self.reducers))
        while env.now < deadline_s and len(self.collectives.gathered()) < target:
            env.run(until=env.now + poll_s)
        self.finished_at = env.now
        output: Dict[str, int] = {}
        for partition_output in self._reduce_outputs.values():
            for key, value in partition_output.items():
                output[key] = output.get(key, 0) + value
        return MapReduceResult(
            output=output,
            map_tasks=self.maps_done,
            reduce_tasks=self.reduces_done,
            makespan_s=(self.finished_at - (self.started_at or 0.0)),
            intermediate_data=self.intermediate_count,
            map_failures=self.maps_failed,
        )
