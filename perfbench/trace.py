"""The traced run: per-layer host-time spans recorded from outside ``src/``.

Nothing in ``src/repro`` knows about tracing.  :class:`Tracer.install`
wraps layer entry points at run time and :meth:`Tracer.uninstall` restores
them.  Three mechanisms cover the stack:

* **Targets** — the :data:`TARGETS` table of ``(layer, "module:Class.attr")``
  rows.  Each resolved function is replaced by a wrapper that opens a span
  around the call; when the call returns a generator the generator is driven
  through :meth:`Tracer._drive`, which opens a span around every *resume*,
  so a process that waits a simulated hour costs only the host time of its
  resumes.  A row that no longer resolves is recorded in ``notes`` and its
  metrics read ``None`` — never a crash.
* **Process attribution** — every generator handed to
  ``Environment.process`` that is not already driven is attributed to the
  layer named after the module that defines it (``repro/workloads/cohort.py``
  → ``workloads.cohort``).  Module-level generator functions imported by
  name elsewhere cannot be patched, and need not be.
* **Live objects** — the event scheduler and the bandwidth allocator are
  strategy objects chosen at run time, so their classes are taken from the
  live ``env.scheduler`` / network allocator when an ``Environment`` /
  ``Network`` is constructed, never by class name.

A span's *self* time is its duration minus the durations of the spans opened
inside it.  There is one thread and no contention, so the self times of all
spans plus the untraced remainder add up to the traced wall-clock.
"""

from __future__ import annotations

import importlib
import inspect
import json
import types
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["TARGETS", "Tracer"]

#: ``(layer, "module:Class.attr")``.  ``Class.*`` wraps every public function
#: defined on the class.  Private names are kernel callbacks or ``yield from``
#: sub-generators that carry a layer's work and have no public caller to
#: wrap; they are the rows most likely to stop resolving.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("sim.kernel", "repro.sim.kernel:Environment.run"),
    ("net.flows", "repro.net.flows:Network.transfer"),
    ("net.flows", "repro.net.flows:Network.abort"),
    ("net.flows", "repro.net.flows:Network.add_host"),
    ("net.flows", "repro.net.flows:Network._settle"),
    ("net.rpc", "repro.net.rpc:RpcChannel.invoke"),
    ("net.rpc", "repro.net.rpc:RpcChannel.invoke_failover"),
    ("storage.database", "repro.storage.database:Database.*"),
    ("storage.database", "repro.storage.database:ConnectionPool.acquire"),
    ("dht.chord", "repro.dht.chord:ChordRing.join"),
    ("dht.chord", "repro.dht.chord:ChordRing.leave"),
    ("dht.chord", "repro.dht.chord:ChordRing.fail"),
    ("dht.chord", "repro.dht.chord:ChordRing.lookup"),
    ("dht.chord", "repro.dht.chord:ChordRing.put"),
    ("dht.chord", "repro.dht.chord:ChordRing.get"),
    ("dht.chord", "repro.dht.chord:ChordRing.delete"),
    ("dht.ddc", "repro.dht.ddc:DistributedDataCatalog.*"),
    ("services.data_scheduler",
     "repro.services.data_scheduler:DataSchedulerService.*"),
    ("services.router", "repro.services.router:StaticRouter.invoke"),
    ("services.router", "repro.services.router:FabricRouter.invoke"),
    ("services.router", "repro.services.router:ShardRing.*"),
    ("services.data_catalog",
     "repro.services.data_catalog:DataCatalogService.*"),
    ("services.data_repository",
     "repro.services.data_repository:DataRepositoryService.*"),
    ("services.data_transfer",
     "repro.services.data_transfer:DataTransferService.*"),
    ("services.rebalance",
     "repro.services.rebalance:RebalanceCoordinator.*"),
    ("transfer.bittorrent", "repro.transfer.bittorrent:BitTorrentProtocol.*"),
    ("transfer.bittorrent",
     "repro.transfer.bittorrent:BitTorrentProtocol.create_handle"),
    ("transfer.bittorrent",
     "repro.transfer.bittorrent:BitTorrentProtocol._run_transfer"),
    ("transfer.ftp", "repro.transfer.ftp:FTPProtocol.*"),
    ("transfer.ftp", "repro.transfer.ftp:FTPProtocol.create_handle"),
    ("transfer.ftp", "repro.transfer.ftp:FTPProtocol._run_transfer"),
    ("transfer.http", "repro.transfer.http:HTTPProtocol.*"),
    ("transfer.http", "repro.transfer.http:HTTPProtocol.create_handle"),
    ("transfer.http", "repro.transfer.http:HTTPProtocol._run_transfer"),
    ("core.runtime", "repro.core.runtime:BitDewEnvironment.attach"),
    ("core.runtime", "repro.core.runtime:BitDewEnvironment.kick_sync"),
    ("core.runtime", "repro.core.runtime:HostAgent.sync_once"),
    ("core.runtime", "repro.core.runtime:HostAgent.fetch"),
    ("core.runtime", "repro.core.runtime:HostAgent.upload"),
    ("apps.master_worker",
     "repro.apps.master_worker:MasterWorkerApplication.*"),
    ("apps.master_worker",
     "repro.apps.master_worker:MasterWorkerApplication._execute"),
)

_MAX_CHROME_SPANS = 50_000


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` → ``(owner, attr)``; raises if it is gone."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr != "*":
        getattr(owner, attr)
    return owner, attr


class Tracer:
    """Span recorder: count / total / self per span name, with a parent stack."""

    def __init__(self) -> None:
        self.spans: List[str] = []          # span id -> "layer:Class.attr"
        self.layers: List[str] = []         # span id -> layer
        self.calls: List[int] = []          # function calls / generators started
        self.resumes: List[int] = []        # generator resumes
        self.errors: List[int] = []         # calls or resumes that raised
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        #: unresolved targets and other degradations, by path
        self.notes: Dict[str, str] = {}
        #: live objects, kept until the run ends so their public counters
        #: can be read at the same boundary as the spans
        self.live: Dict[str, List[Any]] = {"env": [], "network": [], "ds": []}
        #: scheduler / allocator work counted inside their wrappers
        self.peak_depth = 0
        self.flows_allocated = 0
        self._ids: Dict[str, int] = {}
        self._stack: List[List[float]] = []  # [span id, child time, start]
        self._events: List[Tuple[int, float, float]] = []
        self._patched: List[Tuple[Any, str, bool, Any]] = []
        self._patched_types: set = set()
        self._module_layers: Dict[str, Optional[int]] = {}
        #: whether ``Environment.process`` resolved, so module-attributed
        #: layers read zero (not ``None``) when none of their processes ran
        self.attributes_processes = False

    # ------------------------------------------------------------ recording
    def span_id(self, layer: str, name: str) -> int:
        key = f"{layer}:{name}"
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.spans)
            self.spans.append(key)
            self.layers.append(layer)
            self.calls.append(0)
            self.resumes.append(0)
            self.errors.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return sid

    def _close(self) -> None:
        end = perf_counter()
        sid, child, start = self._stack.pop()
        duration = end - start
        self.total_s[sid] += duration
        self.self_s[sid] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        if len(self._events) < _MAX_CHROME_SPANS:
            self._events.append((sid, start, duration))

    def _wrap(self, sid: int, fn: Callable) -> Callable:
        """Span around each call; a returned generator is driven per resume."""
        stack, close = self._stack, self._close
        calls, errors, drive = self.calls, self.errors, self._drive
        drive_code = drive.__code__
        generator_type = types.GeneratorType

        def traced(*args, **kwargs):
            calls[sid] += 1
            stack.append([sid, 0.0, perf_counter()])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[sid] += 1
                raise
            finally:
                close()
            if type(result) is generator_type \
                    and result.gi_code is not drive_code:
                return drive(sid, result)
            return result

        return traced

    def _drive(self, sid: int, generator):
        """Re-yield *generator*'s events, timing each resume as one span.

        The driven generator sees exactly the sends and throws its consumer
        makes, so simulated behaviour is unchanged.
        """
        stack, close = self._stack, self._close
        resumes, errors = self.resumes, self.errors
        send, throw = generator.send, generator.throw
        value: Any = None
        pending: Optional[BaseException] = None
        try:
            while True:
                resumes[sid] += 1
                stack.append([sid, 0.0, perf_counter()])
                try:
                    if pending is None:
                        target = send(value)
                    else:
                        raised, pending = pending, None
                        target = throw(raised)
                except StopIteration as stop:
                    return stop.value
                except BaseException:
                    errors[sid] += 1
                    raise
                finally:
                    close()
                try:
                    value = yield target
                except GeneratorExit:
                    raise
                except BaseException as exc:
                    pending = exc
        finally:
            generator.close()

    # ------------------------------------------------------------- patching
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, layer: str, owner: Any, attr: str) -> None:
        # An inherited function is wrapped on the subclass it was named on.
        fn = inspect.getattr_static(owner, attr)
        if not isinstance(fn, types.FunctionType):
            return                          # property, staticmethod, constant
        sid = self.span_id(layer, f"{owner.__name__}.{attr}")
        self._patch(owner, attr, self._wrap(sid, fn))

    def _patch_target(self, layer: str, path: str) -> None:
        try:
            owner, attr = _resolve(path)
        except (ImportError, AttributeError) as exc:
            self.notes[path] = f"unresolved: {exc}"
            return
        if attr != "*":
            self._patch_function(layer, owner, attr)
            return
        for name, value in list(vars(owner).items()):
            if not name.startswith("_") and isinstance(value, types.FunctionType):
                self._patch_function(layer, owner, name)

    def _hook_init(self, key: str, path: str,
                   after: Optional[Callable[[Any], None]] = None) -> None:
        """Keep every instance of a live class; run *after* on each."""
        try:
            cls, _ = _resolve(path + ".__init__")
        except (ImportError, AttributeError) as exc:
            self.notes[path] = f"unresolved: {exc}"
            return
        original = cls.__init__
        instances = self.live[key]

        def traced_init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)
            if after is not None:
                after(obj)

        self._patch(cls, "__init__", traced_init)

    def _trace_scheduler(self, env: Any) -> None:
        """Wrap push/pop/peek of the live event-queue strategy's class."""
        scheduler = getattr(env, "scheduler", None)
        cls = type(scheduler)
        if scheduler is None or cls in self._patched_types:
            return
        self._patched_types.add(cls)
        for attr in ("push", "pop", "peek"):
            fn = getattr(cls, attr, None)
            if not isinstance(fn, types.FunctionType):
                self.notes[f"env.scheduler.{attr}"] = (
                    f"unresolved: {cls.__name__} has no function {attr!r}")
                continue
            sid = self.span_id("sim.scheduler", attr)
            self._patch(cls, attr, self._wrap_leaf(sid, fn, depth=attr == "push"))

    def _wrap_leaf(self, sid: int, fn: Callable, depth: bool = False) -> Callable:
        """A cheap span for calls that never open a span themselves.

        The scheduler is entered twice per simulated event; it calls no other
        layer, so the stack push/pop of :meth:`_wrap` is skipped.
        """
        stack, tracer = self._stack, self
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def traced(queue, *args):
            start = perf_counter()
            try:
                return fn(queue, *args)
            finally:
                duration = perf_counter() - start
                calls[sid] += 1
                total_s[sid] += duration
                self_s[sid] += duration
                if stack:
                    stack[-1][1] += duration
                if depth:
                    size = len(queue)
                    if size > tracer.peak_depth:
                        tracer.peak_depth = size

        return traced

    def _trace_allocator(self, network: Any) -> None:
        """Wrap the live bandwidth allocator's class, found on the network."""
        allocator = getattr(network, "_allocator", None)
        if allocator is None:
            self.notes["network._allocator"] = (
                "unresolved: the network exposes no allocator object")
            return
        cls = type(allocator)
        if cls in self._patched_types:
            return
        self._patched_types.add(cls)
        tracer = self
        for attr in ("allocate", "flow_added", "flow_removed", "rebuild"):
            fn = getattr(cls, attr, None)
            if not isinstance(fn, types.FunctionType):
                self.notes[f"network._allocator.{attr}"] = (
                    f"unresolved: {cls.__name__} has no function {attr!r}")
                continue
            if attr == "allocate":
                def counted(alloc, active, *args, _fn=fn, **kwargs):
                    tracer.flows_allocated += len(active)
                    return _fn(alloc, active, *args, **kwargs)
                fn = counted
            self._patch(cls, attr,
                        self._wrap(self.span_id("net.allocation", attr), fn))

    def _trace_processes(self) -> None:
        """Attribute undriven process generators to their defining module."""
        try:
            cls, _ = _resolve("repro.sim.kernel:Environment.process")
        except (ImportError, AttributeError) as exc:
            self.notes["repro.sim.kernel:Environment.process"] = \
                f"unresolved: {exc}"
            return
        original = cls.process
        drive, layer_of = self._drive, self._layer_of_file
        drive_code = drive.__code__

        def traced_process(env, generator):
            code = getattr(generator, "gi_code", None)
            if code is not None and code is not drive_code:
                sid = layer_of(code.co_filename)
                if sid is not None:
                    self.calls[sid] += 1
                    generator = drive(sid, generator)
            return original(env, generator)

        self._patch(cls, "process", traced_process)
        self.attributes_processes = True

    def _layer_of_file(self, filename: str) -> Optional[int]:
        """``.../repro/workloads/cohort.py`` → span id of ``workloads.cohort``."""
        try:
            return self._module_layers[filename]
        except KeyError:
            pass
        parts = filename.replace("\\", "/").split("/")
        sid: Optional[int] = None
        if "repro" in parts:
            module = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
            if module:
                module[-1] = module[-1].rsplit(".", 1)[0]
                # The harness modules (bench/*.py) are one layer, "bench".
                layer = module[0] if module[0] == "bench" \
                    else ".".join(module[:2])
                sid = self.span_id(layer, f"{module[-1]}.process")
        self._module_layers[filename] = sid
        return sid

    def install(self, targets: Tuple[Tuple[str, str], ...] = TARGETS) -> None:
        for layer, path in targets:
            self._patch_target(layer, path)
        self._trace_processes()
        self._hook_init("env", "repro.sim.kernel:Environment",
                        self._trace_scheduler)
        self._hook_init("network", "repro.net.flows:Network",
                        self._trace_allocator)
        self._hook_init(
            "ds", "repro.services.data_scheduler:DataSchedulerService")

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()
        self._patched_types.clear()

    # -------------------------------------------------------------- reading
    def counter(self, key: str, attr: str) -> Optional[float]:
        """Sum of a public counter over the live objects of one class."""
        objects = self.live[key]
        try:
            return sum(getattr(obj, attr) for obj in objects)
        except AttributeError as exc:
            self.notes[f"{key}.{attr}"] = f"unresolved: {exc}"
            return None

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for sid, layer in enumerate(self.layers):
            out[layer] = out.get(layer, 0.0) + self.self_s[sid]
        return out

    def span_calls(self, *names: str) -> Optional[int]:
        """Calls summed over the named spans; ``None`` if none was wrapped."""
        found = [self._ids[name] for name in names if name in self._ids]
        if not found:
            return None
        return sum(self.calls[sid] for sid in found)

    def layer_calls(self, layer: str, errors: bool = False) -> Optional[int]:
        """Calls (or raised calls and resumes) over a layer's spans."""
        found = [sid for sid, name in enumerate(self.layers) if name == layer]
        if not found:
            return None
        values = self.errors if errors else self.calls
        return sum(values[sid] for sid in found)

    def aggregate(self) -> List[Dict[str, object]]:
        """Every span that ran: calls, resumes, errors, total and self time."""
        rows = [
            {"span": self.spans[sid], "layer": self.layers[sid],
             "calls": self.calls[sid], "resumes": self.resumes[sid],
             "errors": self.errors[sid], "total_s": self.total_s[sid],
             "self_s": self.self_s[sid]}
            for sid in range(len(self.spans))
            if self.calls[sid] or self.resumes[sid]
        ]
        rows.sort(key=lambda row: -float(row["self_s"]))  # type: ignore[arg-type]
        return rows

    def chrome_trace(self) -> Dict[str, object]:
        """The first spans closed, as Chrome-trace complete (``X``) events.

        Nesting on the single thread encodes the parent of every span.  The
        scheduler's leaf spans are aggregated only, or they would fill the
        file before any other layer appears.
        """
        origin = min((start for _sid, start, _dur in self._events), default=0.0)
        events = [
            {"name": self.spans[sid], "cat": self.layers[sid], "ph": "X",
             "pid": 1, "tid": 1, "ts": (start - origin) * 1e6,
             "dur": duration * 1e6}
            for sid, start, duration in self._events
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str, extra: Dict[str, object]) -> None:
        document = dict(extra)
        document["aggregate"] = self.aggregate()
        document["notes"] = dict(self.notes)
        document.update(self.chrome_trace())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
