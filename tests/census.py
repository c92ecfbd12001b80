"""Whole-tree caller census: which functions of ``src/repro`` does anything run?

A function-level ``sys.setprofile`` hook records every ``src/repro``
function entered while (a) all registered scenarios run at their ``reduced``
sizes (``ScenarioDefinition.sizes``) plus every script under ``examples/``, and
(b) ``pytest tests`` runs.  The report lists what (a) never entered, split
into "tests only" and "nothing" — the candidates for deletion, to be read
against the kept list in ``docs/ARCHITECTURE.md`` ("Surface census").

From the repository root::

    PYTHONPATH=src python tests/census.py scenarios /tmp/scenarios.json
    PYTHONPATH=src python tests/census.py tests /tmp/tests.json
    python tests/census.py report /tmp/scenarios.json /tmp/tests.json

A fourth mode reads state instead of calls: ``state`` is an AST pass (no
import of ``repro``, under a second) that lists every attribute, dataclass
field or class-level attribute *stored* under ``src/repro`` and *loaded*
nowhere in ``src/ tests/ benchmarks/ examples/ perfbench/`` — write-only
state.  It exits 1, printing each store as ``file:line  Class.name``, unless
every such name is on ``STATE_KEPT`` below (CI ``static-analysis`` runs it)::

    python tests/census.py state

It matches by bare attribute name, so it cannot see a name some other class
also loads, a container that is only ever mutated (``x.seen.add(...)`` loads
``seen``), a load that only guards the name's own store, or a database
collection written and never queried — the two largest finds of the PR that
added this mode were made by reading, not by this pass (see "Its blind
spot" in ``docs/ARCHITECTURE.md``).

A fifth mode, ``knobs``, is the same kind of AST pass over parameters: it
counts every parameter with a default of a ``src/repro`` function (``@scenario``
entry points, ``analysis/`` and ``__main__.py`` aside: a scenario's parameters
are the CLI's ``--set``) and lists each that no call under ``src/
benchmarks/ examples/ perfbench/`` sets — one value in use.  A call sets a
parameter when it passes it by keyword or by position, as anything but the
default's own literal.  Calls match by callable: the function's name, or
the class's for ``__init__`` (``cls(...)`` and ``super().__init__(...)``
included), and an RPC's method name (``invoke("ds", "synchronize", ...)``
calls ``synchronize``).  It prints the total of settable values and exits 1
unless each unset parameter is on ``KNOBS_KEPT`` below with its reason (CI
``static-analysis`` runs it)::

    python tests/census.py knobs

It cannot follow a callable through a variable (``run = db.execute;
run(op)``), and two functions of one name share their callers; a call with
``*args`` or ``**kwargs`` sets every parameter of that name.

A sixth mode compares behaviour instead of reading code: ``outputs REF``
materialises ``src/`` of a git ref in a temp dir (``git archive``: nothing is
registered under ``.git``, so an interrupted run leaves no worktree to
prune), runs every registered scenario at its ``reduced`` sizes on both
trees, each run a fresh interpreter, ``cmp``s the two JSONs, prints one line
per scenario and exits 1 on any difference — the acceptance check of every
PR that must not change an output::

    python tests/census.py outputs HEAD~1

Not collected by pytest (no ``test_`` prefix); ``__main__.py`` and
``analysis/`` are left out of the report (the CLI and the linter have
their own tests and no scenario drives them).
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.join(REPO, "src", "repro") + os.sep

#: Names ``state`` finds stored and never loaded that stay, and why (the
#: table in ``docs/ARCHITECTURE.md`` "Surface census" groups them).
STATE_KEPT = {
    "cores": "Table 1 host characteristics",
    "memory_mb": "Table 1 host characteristics",
    "attribute_uid": "paper record: the attribute governing a datum (§3.2)",
    "blocking": "paper record: OOBTransfer taxonomy (Figure 2)",
    "daemon_based": "paper record: OOBTransfer taxonomy (Figure 2)",
    "supports_resume": "paper record: protocol description (§3.4)",
    "data_name": "report field: per-datum transfer timeline",
    "result_uid": "report field: per-task master/worker record",
    "shared_wait_s": "report field: per-task master/worker record",
    "upload_s": "report field: per-task master/worker record",
    "tasks_submitted": "report field: master/worker run summary",
    "sequence": "report field: checkpoint record and signature verdict",
    "stored_at": "report field: checkpoint record",
    "flow": "exception payload: the flow a TransferFailed is about",
}


#: Parameters ``knobs`` finds that no caller outside ``tests/`` sets and that
#: stay settable, and why (the table in ``docs/ARCHITECTURE.md`` "Knobs
#: census" groups them by reason).
_DATA_ATTRIBUTE = "data attribute (§3.2): what a BitDew user programs"
_WHICH_HOSTS = "API input: which hosts (None = every attached one)"
_ATTRIBUTE_NAME = ("names one of the application's attributes (§5), as "
                   "its caller writes them")
_CLOSURE = ("binds a value into a callback when it is made; no caller "
            "passes it")
_LOOKUP_START = "DHT API input: the node a lookup starts from"
KNOBS_KEPT = {
    # paper API
    "BitDew.get(blocking)": "paper API: the non-blocking get (§3.3)",
    "CheckpointManager.__init__(replica)": _DATA_ATTRIBUTE,
    "CheckpointManager.__init__(protocol)": _DATA_ATTRIBUTE,
    "CheckpointManager.__init__(lifetime_s)": _DATA_ATTRIBUTE,
    "MapReduceJob.__init__(protocol)": _DATA_ATTRIBUTE,
    "UpdaterApplication.__init__(protocol)": _DATA_ATTRIBUTE,
    "DataCollectives.broadcast(protocol)": _DATA_ATTRIBUTE,
    "DataCollectives.broadcast(lifetime_reference)": _DATA_ATTRIBUTE,
    "DataCollectives.scatter(fault_tolerance)": _DATA_ATTRIBUTE,
    "build_blast_application(task_replica)": _DATA_ATTRIBUTE,
    "MapReduceJob.__init__(map_function)":
        "API input: the user's map code (§3.6 abstractions)",
    "MapReduceJob.__init__(reduce_function)":
        "API input: the user's reduce code (§3.6 abstractions)",
    "MasterWorkerApplication.__init__(task_attribute_name)": _ATTRIBUTE_NAME,
    "MasterWorkerApplication.__init__(result_attribute_name)": _ATTRIBUTE_NAME,
    "MasterWorkerApplication.__init__(collector_name)": _ATTRIBUTE_NAME,
    "UpdaterApplication.__init__(update_attribute_name)": _ATTRIBUTE_NAME,
    # API inputs: what to act on, not how
    "MapReduceJob.assign_workers(hosts)": _WHICH_HOSTS,
    "MasterWorkerApplication.register_workers(hosts)": _WHICH_HOSTS,
    "UpdaterApplication.register_updatees(hosts)": _WHICH_HOSTS,
    "BitDewEnvironment.kick_sync(hosts)": _WHICH_HOSTS,
    "UpdaterApplication.all_updated(expected)":
        "API input: how many updatees (None = every worker)",
    "CheckpointManager.restore(sequence)":
        "API input: which checkpoint (None = the latest)",
    "DataCollectives.gather_wait(poll_s)":
        "API input: how often the caller polls while it waits",
    "DataCollectives.gather_wait(timeout_s)":
        "API input: how long the caller waits",
    "BitDewEnvironment.restart_host(auto_sync)":
        "runtime API: a restart starts the pull loop as attach(auto_sync=) "
        "does, which callers set",
    "ChordRing.delete(value)":
        "DHT API input: the value to drop (None = the whole key)",
    "ChordRing.delete(start)": _LOOKUP_START,
    "DistributedDataCatalog.unpublish(origin)": _LOOKUP_START,
    "FederationDomain.publish(name)":
        "API input: the datum's name (None = its content's)",
    "FederationGateway.federated_search(name)":
        "API input: the name searched for (None = every visible datum)",
    "FederationGateway.search(name)":
        "API input: the name searched for (None = every visible datum)",
    "Network.abort(reason)": "API input: why the flow failed",
    "Environment.timeout(value)":
        "kernel API: the value the timeout event succeeds with",
    "RandomStreams.normal_clipped(maximum)":
        "API input: the upper clip of the draw (None = unclipped)",
    "DataSchedulerService.compute_schedule_batch(reservoir)":
        "API input: synchronize's per-host inputs, batched; the cohort "
        "harness syncs reservoir hosts at the scheduler's default",
    "DataSchedulerService.compute_schedule_batch(max_new)":
        "API input: synchronize's per-host inputs, batched; the cohort "
        "harness syncs reservoir hosts at the scheduler's default",
    "execute_sweep(registry)":
        "API input: the registry scenario names resolve in (None = the "
        "built-in one)",
    "grid5000_testbed(nodes_per_cluster)":
        "testbed data: the workers per Table 1 cluster",
    "grid5000_testbed(service_cluster)":
        "testbed data: the Table 1 cluster of the services",
    # registries
    "ProtocolRegistry.register(replace)":
        "extension API: a user protocol replaces a built-in one on purpose "
        "(§3.4), never by accident",
    "ScenarioRegistry.register(replace)":
        "registry API: a duplicate scenario name is an error unless asked",
    # test seams
    "SloAutoscaler.__init__(coordinator)":
        "test seam: the autoscaler's edge tests drive a stub coordinator",
    "RebalanceCoordinator.__init__(on_phase)":
        "test seam: the chaos harness crashes a host in a chosen phase",
    "FederationDomain.start_replicator(on_phase)":
        "test seam: the chaos harness crashes a host in a chosen phase",
    "BitTorrentProtocol.__init__(rng)":
        "test seam: the swarm oracle draws the same tie shuffles from an "
        "equally seeded stream",
    # closure bindings
    "BitDewEnvironment.attach._delayed_start(agent)": _CLOSURE,
    "BitDewEnvironment.attach._delayed_start(delay)": _CLOSURE,
    "TransferManager.track._done(uid)": _CLOSURE,
    "Network.transfer._finish(flow)": _CLOSURE,
    "Network.transfer._activate(flow)": _CLOSURE,
}


def _trace(reached: set):
    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(ROOT):
            reached.add(f"{code.co_filename[len(ROOT):]}:{code.co_firstlineno}")
    return hook


def _python_files(root: str):
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def _defined() -> dict:
    """``{"file:first line": (qualname, lines, enclosing def's key)}``."""
    out = {}

    def walk(rel, node, prefix, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # co_firstlineno is the first decorator's line, not the def's.
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                key = f"{rel}:{first}"
                out[key] = (prefix + child.name,
                            child.end_lineno - first + 1, outer)
                walk(rel, child, prefix + child.name + ".", key)
            elif isinstance(child, ast.ClassDef):
                walk(rel, child, prefix + child.name + ".", outer)
            else:
                walk(rel, child, prefix, outer)

    for path in _python_files(ROOT):
        with open(path) as handle:
            walk(path[len(ROOT):], ast.parse(handle.read()), "", None)
    return out


def _run_scenarios_and_examples() -> None:
    from repro.experiments import ScenarioSpec, default_registry, run_spec
    for definition in default_registry().definitions():
        params = definition.sizes("reduced")
        run_spec(ScenarioSpec(definition.name, params)).to_json()
    examples = os.path.join(REPO, "examples")
    for script in sorted(os.listdir(examples)):
        sys.argv = [script]
        try:
            runpy.run_path(os.path.join(examples, script),
                           run_name="__main__")
        except SystemExit:
            pass


def _report(scenarios_file: str, tests_file: str) -> None:
    with open(scenarios_file) as handle:
        by_scenarios = set(json.load(handle))
    with open(tests_file) as handle:
        by_tests = set(json.load(handle))
    totals = {"tests only": 0, "nothing": 0}
    defined = _defined()
    for key, (qualname, lines, outer) in sorted(defined.items()):
        rel = key.split(":")[0]
        if key in by_scenarios or rel == "__main__.py" \
                or rel.startswith("analysis" + os.sep):
            continue
        if outer is not None and outer not in by_scenarios:
            continue        # counted with its enclosing function
        who = "tests only" if key in by_tests else "nothing"
        totals[who] += lines
        print(f"{who:10}  {lines:4}  {rel}::{qualname}")
    print(f"unreached by every scenario and example: "
          f"{sum(totals.values())} lines of function bodies "
          f"({totals['tests only']} tests only, {totals['nothing']} nothing)")


def _class_fields(node: ast.ClassDef):
    """``(name, line)`` of *node*'s dataclass fields and class-level
    attributes; constants and enum members (upper case) are not state."""
    for stmt in node.body:
        targets = ([stmt.target] if isinstance(stmt, ast.AnnAssign)
                   else stmt.targets if isinstance(stmt, ast.Assign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not (
                    target.id.isupper() or target.id.startswith("__")):
                yield target.id, stmt.lineno


def _state(root: str) -> int:
    """List what *root* stores and nothing loads; 1 if any is not kept."""
    stored: dict = {}       # name -> [(file, line, enclosing class)]
    loaded: set = set()

    def walk(path, node, cls, collect):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if collect:
                    for name, line in _class_fields(child):
                        stored.setdefault(name, []).append(
                            (path, line, child.name))
                walk(path, child, child.name, collect)
                continue
            if isinstance(child, ast.Attribute):
                if isinstance(child.ctx, ast.Load):
                    loaded.add(child.attr)
                elif isinstance(child.ctx, ast.Store) and collect:
                    # ``x.n += 1`` is a Store too: a counter only ever
                    # incremented is write-only.
                    stored.setdefault(child.attr, []).append(
                        (path, child.lineno, cls))
            elif isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) in (
                        "getattr", "hasattr", "attrgetter"):
                loaded.update(arg.value for arg in child.args
                              if isinstance(arg, ast.Constant)
                              and isinstance(arg.value, str))
            walk(path, child, cls, collect)

    def scan(folder, collect):
        for path in _python_files(folder):
            if not collect and path.startswith(root):
                continue    # read once already, loads included
            with open(path) as handle:
                walk(path, ast.parse(handle.read()), None, collect
                     and not path.startswith(os.path.join(ROOT, "analysis")))

    scan(root, True)
    for folder in ("src", "tests", "benchmarks", "examples", "perfbench"):
        scan(os.path.join(REPO, folder), False)
    write_only = sorted(name for name in stored if name not in loaded)
    offending = [name for name in write_only if name not in STATE_KEPT]
    for name in write_only:
        for path, line, cls in stored[name]:
            print(f"{'' if name in STATE_KEPT else 'NOT KEPT  '}"
                  f"{os.path.relpath(path, REPO)}:{line}  {cls}.{name}")
    print(f"stored and never loaded: {len(write_only)} names "
          f"({len(offending)} not on the kept list)")
    return 1 if offending else 0


def _is_scenario(node) -> bool:
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(func, "id", getattr(func, "attr", None)) == "scenario":
            return True
    return False


def _knob_params(tree):
    """``(line, "Qual.name(param)", callable, param, index, default)`` of each
    parameter with a default in *tree*; *callable* is the name a call uses
    (the class for ``__init__``), *index* the positional slot a call fills
    (``None`` for keyword-only)."""
    out = []

    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, prefix, cls)
                continue
            walk(child, prefix + child.name + ".", None)
            if _is_scenario(child):
                continue        # a scenario's parameters are ``--set``
            args = child.args
            positional = args.posonlyargs + args.args
            # A call's first positional argument fills the slot after self.
            skip = 1 if cls is not None and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in child.decorator_list) else 0
            name = cls if cls and child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            slots = [(arg, i - skip, default) for i, (arg, default) in
                     enumerate(zip(positional[first:], args.defaults), first)]
            slots += [(arg, None, default) for arg, default
                      in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
            for arg, index, default in slots:
                out.append((child.lineno, f"{prefix}{child.name}({arg.arg})",
                            name, arg.arg, index, default))
    walk(tree, "", None)
    return out


def _knob_calls(tree, calls):
    """Add each call in *tree* to *calls*: ``{callable: [(positional
    values, {keyword: value}, open)]}``, *open* when a ``*`` or ``**``
    argument could fill any parameter."""

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                names = [getattr(func, "id", getattr(func, "attr", None))]
                if names[0] == "cls" and cls is not None:
                    names = [cls.name]
                elif (names[0] == "__init__" and cls is not None
                        and isinstance(func.value, ast.Call)):
                    names = [getattr(b, "id", getattr(b, "attr", None))
                             for b in cls.bases]      # super().__init__
                keywords = {k.arg: k.value for k in child.keywords if k.arg}
                open_ = (any(isinstance(a, ast.Starred) for a in child.args)
                         or len(keywords) < len(child.keywords))
                for name in names:
                    calls.setdefault(name, []).append(
                        (child.args, keywords, open_))
                # An RPC names its method: ``invoke("ds", "synchronize",
                # host, view, reservoir=...)`` calls ``synchronize``.
                for i, arg in enumerate(child.args):
                    if (isinstance(arg, ast.Constant)
                            and isinstance(arg.value, str)
                            and arg.value.isidentifier()):
                        calls.setdefault(arg.value, []).append(
                            (child.args[i + 1:], keywords, open_))
            walk(child, cls)
    walk(tree, None)


def _literal(node):
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return node         # not a literal: equal to nothing else
    return type(value), repr(value)


def _knobs(root: str) -> int:
    """List each parameter of *root* with a default that no call outside
    tests sets to another value; 1 if any is not kept."""
    params = []     # (file, line, "Qual.name(param)", callable, param, index, default)
    calls: dict = {}
    for path in _python_files(root):
        rel = path[len(root):].lstrip(os.sep)
        with open(path) as handle:
            tree = ast.parse(handle.read())
        if not (rel == "__main__.py" or rel.startswith("analysis" + os.sep)):
            params += [(path, *param) for param in _knob_params(tree)]
        _knob_calls(tree, calls)
    for folder in ("src", "benchmarks", "examples", "perfbench"):
        for path in _python_files(os.path.join(REPO, folder)):
            if not path.startswith(root):
                with open(path) as handle:
                    _knob_calls(ast.parse(handle.read()), calls)

    def is_set(callable_, name, index, default):
        fixed = _literal(default)
        for args, keywords, open_ in calls.get(callable_, ()):
            if open_:
                return True
            value = keywords.get(name)
            if value is None and index is not None and index < len(args):
                value = args[index]
            if value is not None and _literal(value) != fixed:
                return True
        return False

    unset = [p for p in params if not is_set(*p[3:])]
    offending = [name for _, _, name, *_ in unset if name not in KNOBS_KEPT]
    for path, line, name, *_ in unset:
        print(f"{'' if name in KNOBS_KEPT else 'NOT KEPT  '}"
              f"{os.path.relpath(path, REPO)}:{line}  {name}")
    print(f"settable values: {len(params)}; no caller outside tests sets "
          f"{len(unset)} ({len(offending)} not on the kept list)")
    return 1 if offending else 0


def _outputs(ref: str) -> int:
    """Byte-compare every scenario's JSON on *ref* and on this tree."""
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.experiments import default_registry
    work = tempfile.mkdtemp(prefix="census-outputs-")
    differing = []
    try:
        archive = subprocess.run(["git", "-C", REPO, "archive", ref, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", work], input=archive, check=True)
        trees = {"ref": os.path.join(work, "src"),
                 "here": os.path.join(REPO, "src")}
        for definition in default_registry().definitions():
            name = definition.name
            argv = [sys.executable, "-m", "repro", "run", name, "--quiet",
                    "--no-cache"]
            for key, value in definition.sizes("reduced").items():
                text = value if isinstance(value, str) else json.dumps(value)
                argv += ["--set", f"{key}={text}"]
            outs = []
            for side, src in trees.items():
                outs.append(os.path.join(work, f"{name}.{side}.json"))
                subprocess.run(argv + ["--out", outs[-1]], check=True,
                               cwd=work, env=dict(os.environ, PYTHONPATH=src))
            same = subprocess.run(["cmp", "-s", *outs]).returncode == 0
            if not same:
                differing.append(name)
            print(f"{'identical' if same else 'DIFFERS  '}  {name}",
                  flush=True)
    finally:
        shutil.rmtree(work)
    print(f"{len(differing)} scenario outputs differ from {ref}"
          + (": " + ", ".join(differing) if differing else ""))
    return 1 if differing else 0


def main(argv) -> int:
    mode = argv[1]
    if mode == "state":
        return _state(argv[2] if len(argv) > 2 else ROOT)
    if mode == "knobs":
        return _knobs(argv[2] if len(argv) > 2 else ROOT)
    if mode == "outputs":
        return _outputs(argv[2])
    if mode == "report":
        _report(argv[2], argv[3])
        return 0
    out = argv[2]
    sys.path.insert(0, REPO)
    reached: set = set()
    sys.setprofile(_trace(reached))
    try:
        if mode == "scenarios":
            _run_scenarios_and_examples()
        else:
            import pytest
            pytest.main([os.path.join(REPO, "tests"), "-q",
                         "-p", "no:cacheprovider"])
    finally:
        sys.setprofile(None)
    with open(out, "w") as handle:
        json.dump(sorted(reached), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
