"""One repeat: run one workload once in this (fresh) process.

Every repeat is the first and only run of its process, like a user's
``python -m repro run <scenario>``: ``fig5`` is not bit-identical when run
twice in one interpreter (process-wide id counters feed its BitTorrent
runs), so only a fresh process can be checked against the pinned simulated
statistics on every repeat — and nothing cached by one repeat can speed up
the next.  One thread, GC at interpreter defaults with one ``gc.collect()``
before the timed call.  Untraced, the only instrumentation is one timer
around the outermost ``Environment.run`` — a handful of calls per run.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from time import perf_counter
from typing import Any, Dict, Mapping, Optional, Tuple

from perfbench.workloads import DEFAULT_SEED, Summary, Workload

__all__ = ["END_TO_END", "Mismatch", "bootstrap", "check_expected",
           "declaration", "load_expected", "require_source", "run_traced",
           "run_untraced"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: name -> unit of the end-to-end metrics, in reporting order
END_TO_END = {"wall_s": "s", "run_s": "s", "setup_s": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MiB"}


class Mismatch(Exception):
    """A simulated statistic differs from its reference."""


def require_source() -> None:
    """Put this checkout's ``src`` on the path, or exit non-zero without it."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"perfbench: no simulator source at {source}/repro; "
                 f"run from a full checkout")
    if source not in sys.path:
        sys.path.insert(0, source)


def bootstrap() -> float:
    """Import the simulator; returns the import time.

    The time covers importing the runner and building the scenario registry
    (which imports every layer) — what ``python -m repro run`` pays before
    its first event.
    """
    require_source()
    start = perf_counter()
    from repro.experiments.runner import default_registry
    default_registry()
    return perf_counter() - start


def _run(workload: Workload, seed: int, quick: bool) -> Tuple[Any, Dict[str, Any]]:
    from repro.experiments.runner import run_spec
    from repro.experiments.spec import ScenarioSpec
    outcome = run_spec(ScenarioSpec(scenario=workload.scenario,
                                    params=workload.spec_params(seed, quick)))
    return outcome.results, outcome.spec.params


class _RunClock:
    """Host time inside outermost ``Environment.run`` calls, summed."""

    def __init__(self) -> None:
        from repro.sim.kernel import Environment
        self.total_s = 0.0
        self._depth = 0
        self._cls = Environment
        self._original = original = Environment.run
        clock = self

        def timed_run(env, until=None):
            if clock._depth:
                return original(env, until)
            clock._depth = 1
            start = perf_counter()
            try:
                return original(env, until)
            finally:
                clock.total_s += perf_counter() - start
                clock._depth = 0

        Environment.run = timed_run     # type: ignore[method-assign]

    def remove(self) -> None:
        self._cls.run = self._original  # type: ignore[method-assign]


def declaration() -> Dict[str, Any]:
    """``BENCHMARK.json``: the declared metrics, units, bounds and workloads."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------- correctness
def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_expected(workload: Workload, seed: int, quick: bool,
                   summary: Summary, pinned: bool = True) -> None:
    """Simulated statistics must equal the pin; off the pin, the invariants.

    The pin holds at the default seed, for the full and the ``--quick``
    sizes (and at every seed for a scenario that takes none).  Elsewhere the
    invariants decide: everything placed, downloaded or completed, nothing
    lost — which is ``failed == 0``.
    """
    if summary.failed:
        raise Mismatch(f"{workload.name}: {summary.failed} of "
                       f"{summary.attempted} operations failed")
    if not pinned or (workload.seeded and seed != DEFAULT_SEED):
        return
    section = "quick" if quick else "workloads"
    expected = load_expected()[section].get(workload.name)
    if expected is None:
        raise Mismatch(f"{workload.name}: no {section!r} entry in "
                       f"expected.json (regenerate with --write-expected)")
    # Through JSON, so tuples and lists compare equal.
    actual = json.loads(json.dumps(summary.stats))
    if actual != expected:
        raise Mismatch(f"{workload.name}: simulated statistics moved\n"
                       f"  expected {json.dumps(expected, sort_keys=True)}\n"
                       f"  got      {json.dumps(actual, sort_keys=True)}")


# ---------------------------------------------------------------- untraced
def run_untraced(workload: Workload, seed: int, quick: bool,
                 check: bool = True) -> Dict[str, Any]:
    """One timed, checked run; the end-to-end samples of this repeat."""
    clock = _RunClock()
    try:
        gc.collect()
        start = perf_counter()
        results, params = _run(workload, seed, quick)
        wall_s = perf_counter() - start
    finally:
        clock.remove()
    summary = workload.summarise(results, params)
    check_expected(workload, seed, quick, summary, pinned=check)
    return {
        "attempted": summary.attempted,
        "failed": summary.failed,
        "stats": summary.stats,
        "samples": {
            "wall_s": wall_s,
            "run_s": clock.total_s,
            "setup_s": wall_s - clock.total_s,
            "ops_per_s": (summary.attempted - summary.failed) / wall_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


# ------------------------------------------------------------------ traced
def _ratio(numerator: Optional[float], denominator: Optional[float]
           ) -> Optional[float]:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Any, results: Any, import_s: float,
                  traced_wall_s: float) -> Dict[str, Optional[float]]:
    """Every per-layer metric of ``BENCHMARK.json``, by name.

    ``None`` means the target behind the metric no longer resolves (see the
    tracer's notes).  A layer the workload never enters reads zero.
    """
    self_s = tracer.layer_self_s()
    calls, layer_calls = tracer.span_calls, tracer.layer_calls
    counter = tracer.counter

    def field(*path: str) -> Optional[float]:
        """A counter the scenario itself reports, if it still does."""
        value: Any = results
        for key in path:
            if not isinstance(value, Mapping) or key not in value:
                return None
            value = value[key]
        return value

    out: Dict[str, Optional[float]] = {}

    def layer(name: str, by_process: bool = False,
              **counts: Optional[float]) -> None:
        for key, value in counts.items():
            out[f"{name}.{key}"] = value
        # A layer none of whose targets resolved is unresolved, not idle.
        resolved = (tracer.attributes_processes if by_process
                    else layer_calls(name) is not None)
        out[f"{name}.self_s"] = self_s.get(name, 0.0) if resolved else None

    events = counter("env", "processed_events")
    layer("sim.kernel", events=events,
          run_calls=calls("sim.kernel:Environment.run"))
    out["sim.kernel.us_per_event"] = _ratio(
        None if out["sim.kernel.self_s"] is None
        else out["sim.kernel.self_s"] * 1e6, events)
    layer("sim.scheduler", pushes=calls("sim.scheduler:push"),
          pops=calls("sim.scheduler:pop"),
          peak_depth=(tracer.peak_depth
                      if calls("sim.scheduler:push") is not None else None))
    layer("net.flows", transfers=calls("net.flows:Network.transfer"),
          completed=counter("network", "completed_flows"),
          recompute_requests=counter("network", "recompute_requests"))
    passes = counter("network", "allocation_passes")
    layer("net.allocation", passes=passes,
          flows_per_pass=_ratio(
              tracer.flows_allocated
              if calls("net.allocation:allocate") is not None else None, passes),
          passes_per_request=_ratio(
              passes, counter("network", "recompute_requests")))
    layer("net.rpc", calls=calls("net.rpc:RpcChannel.invoke"),
          failed=layer_calls("net.rpc", errors=True))
    layer("storage.database",
          ops=calls("storage.database:Database.execute",
                    "storage.database:Database.admin_execute"))
    layer("dht.chord", joins=calls("dht.chord:ChordRing.join"),
          lookups=calls("dht.chord:ChordRing.lookup"))
    assignments = counter("ds", "assignments")
    examined = counter("ds", "entries_examined")
    layer("services.data_scheduler", syncs=counter("ds", "sync_count"),
          assignments=assignments, entries_examined=examined,
          examined_per_assignment=_ratio(examined, assignments))
    layer("services.router",
          calls=calls("services.router:StaticRouter.invoke",
                      "services.router:FabricRouter.invoke"))
    layer("services.data_catalog", ops=layer_calls("services.data_catalog"))
    layer("services.data_transfer",
          transfers=calls("services.data_transfer:DataTransferService.start"))
    rebalances = field("autoscaled", "rebalances")
    layer("services.rebalance",
          migrations=calls("services.rebalance:RebalanceCoordinator.split",
                           "services.rebalance:RebalanceCoordinator.merge"),
          keys_moved=(sum(row["keys_moved"] for row in rebalances)
                      if isinstance(rebalances, list) else 0))
    for protocol, cls in (("bittorrent", "BitTorrentProtocol"),
                          ("ftp", "FTPProtocol"), ("http", "HTTPProtocol")):
        layer(f"transfer.{protocol}",
              handles=calls(f"transfer.{protocol}:{cls}.create_handle"))
    layer("core.runtime",
          attaches=calls("core.runtime:BitDewEnvironment.attach"),
          syncs=calls("core.runtime:HostAgent.sync_once"),
          fetches=calls("core.runtime:HostAgent.fetch"))
    layer("workloads.cohort", by_process=True, syncs=field("syncs") or 0,
          heartbeats=field("heartbeats") or 0)
    layer("apps.master_worker",
          tasks=calls("apps.master_worker:MasterWorkerApplication._execute"))
    out["experiments.import_s"] = import_s
    named = sum(value for key, value in out.items()
                if key.endswith(".self_s") and value is not None)
    # run_spec time outside every span: scenario resolution, the harness
    # body's world-building glue, result assembly.
    dispatch_s = traced_wall_s - sum(self_s.values())
    out["experiments.dispatch_s"] = dispatch_s
    # Spans of the layers the benchmark does not name: dht.ddc,
    # services.data_repository, the harnesses' own processes, autoscaler, ...
    out["trace.other_s"] = traced_wall_s - named - dispatch_s
    out["trace.coverage"] = named / traced_wall_s
    return out


def run_traced(workload: Workload, seed: int, quick: bool, import_s: float,
               trace_out: Optional[str] = None, check: bool = True
               ) -> Dict[str, Any]:
    """The same run with the tracer installed; every per-layer metric."""
    from perfbench.trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        start = perf_counter()
        results, params = _run(workload, seed, quick)
        traced_wall_s = perf_counter() - start
    finally:
        tracer.uninstall()
    summary = workload.summarise(results, params)
    check_expected(workload, seed, quick, summary, pinned=check)
    metrics = layer_metrics(tracer, results, import_s, traced_wall_s)
    outcome = {
        "attempted": summary.attempted,
        "failed": summary.failed,
        "stats": summary.stats,
        "traced_wall_s": traced_wall_s,
        "metrics": metrics,
        "notes": dict(tracer.notes),
    }
    if trace_out:
        tracer.write(trace_out, dict(outcome, workload=workload.name,
                                     seed=seed, quick=quick))
    return outcome
