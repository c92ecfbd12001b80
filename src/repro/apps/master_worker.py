"""Data-driven master/worker framework (paper §5).

"In a classical MW application, tasks are created by the master and scheduled
to the workers.  [...] In contrast, the data-driven approach followed by
BitDew implies that data are first scheduled to hosts.  The programmer does
not have to code explicitly the data movement from host to host, neither to
manage fault tolerance.  Programming the master or the worker consists in
operating on data and attributes and reacting on data copy."

The framework materialises the paper's pattern:

* **shared inputs** (the Application binary, the Genebase archive) are put
  into the data space and scheduled either to every node (``replica = -1``)
  or by affinity to the task inputs;
* each **task** is a small input datum (a Sequence) scheduled with the task
  attribute (fault-tolerant, small replica count, light protocol);
* every **worker** installs a data-copy handler; when a task input lands in
  its cache and the shared inputs are present, it runs the computation and
  publishes a **result** datum whose affinity points at the master's pinned
  **Collector**, so results flow back automatically;
* deleting the Collector at the end obsoletes every datum whose lifetime
  references it (the clean-up idiom of §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.core.events import ActiveDataEventHandler
from repro.core.exceptions import BitDewError
from repro.core.runtime import BitDewEnvironment, HostAgent
from repro.net.host import Host
from repro.sim.rng import RandomStreams
from repro.storage.filesystem import FileContent

__all__ = ["MasterWorkerApplication", "SharedInput", "TaskRecord", "TaskSpec"]

#: Tasks and results are small files: HTTP, the paper's choice for them (§5).
TASK_PROTOCOL = "http"
RESULT_PROTOCOL = "http"


@dataclass(frozen=True)
class SharedInput:
    """A large input shared by all (or many) tasks."""

    name: str
    size_mb: float
    #: replicate to every node (-1) or rely on affinity to the task inputs
    replica: int = -1
    #: schedule by affinity to the task attribute instead of plain replication
    affinity_to_tasks: bool = False
    compressed: bool = False
    #: reference seconds to decompress on the reference CPU (cpu_factor 1.0)
    unzip_reference_s: float = 0.0


@dataclass(frozen=True)
class TaskSpec:
    """One independent task: a small input datum plus a compute cost."""

    task_id: int
    input_name: str
    input_size_mb: float
    reference_compute_s: float
    result_size_mb: float


@dataclass
class TaskRecord:
    """Timing breakdown of one executed task (feeds Figures 5 and 6)."""

    task_id: int
    host_name: str
    cluster: str
    started_at: float
    shared_wait_s: float = 0.0
    transfer_s: float = 0.0
    unzip_s: float = 0.0
    execution_s: float = 0.0
    upload_s: float = 0.0
    completed_at: Optional[float] = None
    result_uid: Optional[str] = None


class _WorkerHandler(ActiveDataEventHandler):
    """Reacts to task-input copies on a worker and launches the execution."""

    def __init__(self, app: "MasterWorkerApplication", agent: HostAgent):
        self.app = app
        self.agent = agent

    def on_data_copy_event(self, data: Data, attribute: Attribute) -> None:
        if attribute.name != self.app.task_attribute_name:
            return
        task = self.app._tasks_by_input_uid.get(data.uid)
        key = (data.uid, self.agent.host.name)
        if task is None or key in self.app._started_inputs:
            return
        self.app._started_inputs.add(key)
        self.agent.env.process(self.app._execute(self.agent, task, data))


class _CollectorHandler(ActiveDataEventHandler):
    """Counts the results landing on the master (affinity to the Collector)."""

    def __init__(self, app: "MasterWorkerApplication"):
        self.app = app

    def on_data_copy_event(self, data: Data, attribute: Attribute) -> None:
        if attribute.name == self.app.result_attribute_name:
            self.app._collected_results[data.uid] = self.app.runtime.env.now


class MasterWorkerApplication:
    """A master/worker application expressed purely through data attributes.

    The paper's §5 pattern verbatim: tasks are data scheduled to hosts,
    workers react to data-copy events, results flow back through affinity
    to the master's pinned Collector, and deleting the Collector obsoletes
    every dependent datum (the clean-up idiom closing §5).
    """

    def __init__(
        self,
        runtime: BitDewEnvironment,
        master_host: Host,
        shared_inputs: Sequence[SharedInput],
        tasks: Sequence[TaskSpec],
        shared_protocol: str = "bittorrent",
        task_replica: int = 1,
        rng: Optional[RandomStreams] = None,
        task_attribute_name: str = "Sequence",
        result_attribute_name: str = "Result",
        collector_name: str = "Collector",
    ):
        self.runtime = runtime
        # The master is a *client* host: it never receives task inputs through
        # replica placement, only results through affinity to its Collector.
        # It asks the scheduler for large batches so that collecting many small
        # results is not throttled by MaxDataSchedule.
        self.master = runtime.attach(master_host, reservoir=False,
                                     max_data_schedule=64)
        self.shared_inputs = list(shared_inputs)
        self.tasks = list(tasks)
        self.shared_protocol = shared_protocol
        self.task_replica = int(task_replica)
        self.rng = rng if rng is not None else RandomStreams(23)
        self.task_attribute_name = task_attribute_name
        self.result_attribute_name = result_attribute_name
        self.collector_name = collector_name

        self.collector_data: Optional[Data] = None
        self.shared_data: Dict[str, Data] = {}
        self._tasks_by_input_uid: Dict[str, TaskSpec] = {}
        #: (task input uid, host name) pairs whose execution already started
        self._started_inputs: Set[tuple] = set()
        self.records: List[TaskRecord] = []
        self._collected_results: Dict[str, float] = {}
        self._unzipped_hosts: Set[str] = set()
        self.deploy_started_at: Optional[float] = None
        self.master.active_data.add_callback(_CollectorHandler(self))

    # ------------------------------------------------------------------ attributes
    def _collector_attribute(self) -> Attribute:
        return Attribute(name=self.collector_name, replica=1, protocol="http")

    def _shared_attribute(self, spec: SharedInput) -> Attribute:
        affinity = self.task_attribute_name if spec.affinity_to_tasks else None
        replica = 1 if spec.affinity_to_tasks else spec.replica
        return Attribute(
            name=spec.name, replica=replica, protocol=self.shared_protocol,
            affinity=affinity, relative_lifetime=self.collector_name,
        )

    def _task_attribute(self) -> Attribute:
        return Attribute(
            name=self.task_attribute_name, replica=self.task_replica,
            fault_tolerance=True,
            protocol=TASK_PROTOCOL,
            relative_lifetime=self.collector_name,
        )

    def _result_attribute(self) -> Attribute:
        return Attribute(
            name=self.result_attribute_name, replica=1,
            protocol=RESULT_PROTOCOL, affinity=self.collector_name,
            relative_lifetime=self.collector_name,
        )

    # ------------------------------------------------------------------ master side
    def deploy(self):
        """Generator: publish the Collector and the shared inputs (master)."""
        self.deploy_started_at = self.runtime.env.now
        bitdew = self.master.bitdew
        active = self.master.active_data

        # The empty Collector datum, pinned on the master.
        collector = yield from bitdew.create_data(self.collector_name)
        self.collector_data = collector
        yield from active.pin(collector, attribute=self._collector_attribute())

        # Shared inputs: upload once, then let the scheduler distribute them.
        for spec in self.shared_inputs:
            content = FileContent.from_seed(spec.name, spec.size_mb)
            data = yield from bitdew.create_data(spec.name, content=content)
            yield from bitdew.put(data, content, protocol=self.shared_protocol)
            yield from active.schedule(data, self._shared_attribute(spec))
            self.shared_data[spec.name] = data
        return self.shared_data

    def submit_tasks(self):
        """Generator: publish one input datum per task (master)."""
        bitdew = self.master.bitdew
        active = self.master.active_data
        attribute = self._task_attribute()
        for task in self.tasks:
            content = FileContent.from_seed(task.input_name, task.input_size_mb)
            data = yield from bitdew.create_data(task.input_name, content=content)
            yield from bitdew.put(data, content, protocol=TASK_PROTOCOL)
            yield from active.schedule(data, attribute)
            self._tasks_by_input_uid[data.uid] = task
        return list(self._tasks_by_input_uid)

    def cleanup(self):
        """Generator: delete the Collector, obsoleting every dependent datum."""
        if self.collector_data is None:
            return 0
        yield from self.master.bitdew.delete_data(self.collector_data)
        return 1

    # ------------------------------------------------------------------ worker side
    def register_worker(self, agent: HostAgent) -> HostAgent:
        """Install the task-execution handler on a worker agent."""
        agent.active_data.add_callback(_WorkerHandler(self, agent))
        return agent

    def register_workers(self, hosts: Optional[Sequence[Host]] = None) -> List[HostAgent]:
        targets = hosts if hosts is not None else self.runtime.topology.worker_hosts
        agents = []
        for host in targets:
            if host is self.master.host:
                continue
            agent = self.runtime.attach(host)
            agents.append(self.register_worker(agent))
        return agents

    def _execute(self, agent: HostAgent, task: TaskSpec, input_data: Data):
        """Generator: one worker executing one task."""
        env = self.runtime.env
        record = TaskRecord(task_id=task.task_id, host_name=agent.host.name,
                            cluster=agent.host.cluster, started_at=env.now)
        # Wait for the shared inputs (they arrive through affinity/replication).
        # ``deploy`` filled ``shared_data`` before any task was submitted, so
        # the uids are read once; a poll is then one C-level superset test
        # (``>=``) against the agent's live content set, with no Python call.
        shared_uids = frozenset(data.uid for data in self.shared_data.values())
        present = agent.content_present
        wait_start = env.now
        while not present >= shared_uids:
            if not agent.host.online:
                return None
            yield env.timeout(1.0)
        record.shared_wait_s = env.now - wait_start

        # Transfer accounting: how long this host spent downloading shared data.
        record.transfer_s = sum(
            (agent.stats[d.uid].download_time_s or 0.0)
            for d in self.shared_data.values() if d.uid in agent.stats
        ) + (agent.stats[input_data.uid].download_time_s or 0.0
             if input_data.uid in agent.stats else 0.0)

        # Unzip compressed shared inputs (once per host).
        if agent.host.name not in self._unzipped_hosts:
            self._unzipped_hosts.add(agent.host.name)
            unzip_ref = sum(s.unzip_reference_s for s in self.shared_inputs
                            if s.compressed)
            if unzip_ref > 0:
                unzip_time = agent.host.compute_time(unzip_ref)
                record.unzip_s = unzip_time
                yield env.timeout(unzip_time)

        # The computation itself.
        execution_time = agent.host.compute_time(task.reference_compute_s)
        record.execution_s = execution_time
        yield env.timeout(execution_time)
        if not agent.host.online:
            return None

        # Publish the result with affinity to the Collector.
        upload_start = env.now
        result_content = FileContent.from_seed(
            f"result-{task.task_id:05d}-{agent.host.name}", task.result_size_mb)
        result = yield from agent.bitdew.create_data(
            f"result-{task.task_id:05d}", content=result_content)
        yield from agent.bitdew.put(result, result_content,
                                    protocol=RESULT_PROTOCOL)
        yield from agent.active_data.schedule(result, self._result_attribute())
        record.upload_s = env.now - upload_start
        record.completed_at = env.now
        record.result_uid = result.uid
        self.records.append(record)
        return record

    # ------------------------------------------------------------------ progress / report
    @property
    def results_collected(self) -> int:
        return len(self._collected_results)

    @property
    def tasks_executed(self) -> int:
        return len([r for r in self.records if r.completed_at is not None])

    def all_results_collected(self) -> bool:
        return self.results_collected >= len(self.tasks)

    def run(self, deadline_s: float, poll_s: float = 5.0) -> "MasterWorkerReport":
        """Drive the simulation until every result reached the master (or the
        deadline passes) and return the aggregated report."""
        env = self.runtime.env
        deploy_proc = env.process(self._master_program())
        env.run(until=deploy_proc)
        start = self.deploy_started_at if self.deploy_started_at is not None else 0.0
        while env.now < deadline_s and not self.all_results_collected():
            env.run(until=min(deadline_s, env.now + poll_s))
        makespan = (max(self._collected_results.values()) - start
                    if self._collected_results else env.now - start)
        return MasterWorkerReport(
            makespan_s=makespan,
            tasks_submitted=len(self.tasks),
            tasks_executed=self.tasks_executed,
            results_collected=self.results_collected,
            records=list(self.records),
        )

    def _master_program(self):
        yield from self.deploy()
        yield from self.submit_tasks()


@dataclass
class MasterWorkerReport:
    """Aggregated outcome of one master/worker run."""

    makespan_s: float
    tasks_submitted: int
    tasks_executed: int
    results_collected: int
    records: List[TaskRecord] = field(default_factory=list)

    def breakdown_by_cluster(self) -> Dict[str, Dict[str, float]]:
        """Mean transfer / unzip / execution time per cluster (Figure 6)."""
        clusters: Dict[str, List[TaskRecord]] = {}
        for record in self.records:
            clusters.setdefault(record.cluster, []).append(record)
        out: Dict[str, Dict[str, float]] = {}
        for cluster, records in sorted(clusters.items()):
            n = len(records)
            out[cluster] = {
                "transfer_s": sum(r.transfer_s for r in records) / n,
                "unzip_s": sum(r.unzip_s for r in records) / n,
                "execution_s": sum(r.execution_s for r in records) / n,
                "tasks": float(n),
            }
        return out

    def mean_breakdown(self) -> Dict[str, float]:
        if not self.records:
            return {"transfer_s": 0.0, "unzip_s": 0.0, "execution_s": 0.0, "tasks": 0.0}
        n = len(self.records)
        return {
            "transfer_s": sum(r.transfer_s for r in self.records) / n,
            "unzip_s": sum(r.unzip_s for r in self.records) / n,
            "execution_s": sum(r.execution_s for r in self.records) / n,
            "tasks": float(n),
        }


__all__.append("MasterWorkerReport")
