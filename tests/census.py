"""Whole-tree caller census: which functions of ``src/repro`` does anything run?

A function-level ``sys.setprofile`` hook records every ``src/repro``
function entered while (a) all registered scenarios run at the ``REDUCED``
sizes of ``tests/test_ids.py`` plus every script under ``examples/``, and
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
lists every parameter of a ``src/repro`` function (``@scenario`` entry
points aside: their parameters are the CLI's ``--set``) whose default is
``True``, ``False`` or a string literal and that no call under ``src/
benchmarks/ examples/ perfbench/`` passes by keyword — a behaviour switch
only tests set, one value in use.  It exits 1 unless each is on
``KNOBS_KEPT`` below with its reason (CI ``static-analysis`` runs it)::

    python tests/census.py knobs

It matches keywords by bare name too, so a keyword of the same name passed
to any other function counts as set, and a value passed positionally does
not.

A sixth mode compares behaviour instead of reading code: ``outputs REF``
materialises ``src/`` of a git ref in a temp dir (``git archive``: nothing is
registered under ``.git``, so an interrupted run leaves no worktree to
prune), runs every registered scenario at the ``REDUCED`` sizes on both
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
#: stay settable, and why.
KNOBS_KEPT = {
    "BitDew.get(blocking)": "paper API: the non-blocking get (§3.3)",
    "ProtocolRegistry.register(replace)":
        "extension API: a user protocol replaces a built-in one on purpose "
        "(§3.4), never by accident",
    "ScenarioRegistry.register(replace)":
        "registry API: a duplicate scenario name is an error unless asked",
    "grid5000_testbed(service_cluster)":
        "topology data, not a switch: the Table 1 cluster of the services",
    "UpdaterApplication.__init__(update_attribute_name)":
        "names the §5 updater's attribute, as MasterWorkerApplication's "
        "names are",
}


def _trace(reached: set):
    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(ROOT):
            reached.add(f"{code.co_filename[len(ROOT):]}:{code.co_firstlineno}")
    return hook


def _python_files(root: str):
    for folder, _dirs, files in os.walk(root):
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
    from tests.test_ids import REDUCED
    for definition in default_registry().definitions():
        params = dict(REDUCED.get(definition.name, {}))
        run_spec(ScenarioSpec(definition.name, params)).to_json()
    examples = os.path.join(REPO, "examples")
    for script in sorted(os.listdir(examples)):
        quick = ["--quick"] if script == "reproduce_paper.py" else []
        sys.argv = [script] + quick
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


def _knobs(root: str) -> int:
    """List *root*'s switch parameters no caller outside tests sets; 1 if
    any is not kept."""
    switches = []       # (file, line, "Qual.name(param)", param)

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(path, child, prefix + child.name + ".")
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(path, child, prefix)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            defaults = list(zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults))
            defaults += zip(args.kwonlyargs, args.kw_defaults)
            if _is_scenario(child):
                defaults = []       # a scenario's parameters are ``--set``
            for arg, default in defaults:
                if (isinstance(default, ast.Constant)
                        and isinstance(default.value, (bool, str))):
                    switches.append((path, child.lineno,
                                     f"{prefix}{child.name}({arg.arg})",
                                     arg.arg))
            walk(path, child, prefix + child.name + ".")

    for path in _python_files(root):
        with open(path) as handle:
            walk(path, ast.parse(handle.read()), "")
    passed = set()
    for folder in ("src", "benchmarks", "examples", "perfbench"):
        for path in _python_files(os.path.join(REPO, folder)):
            with open(path) as handle:
                passed.update(keyword.arg
                              for node in ast.walk(ast.parse(handle.read()))
                              if isinstance(node, ast.Call)
                              for keyword in node.keywords)
    unset = [switch for switch in switches if switch[3] not in passed]
    offending = [name for _, _, name, _ in unset if name not in KNOBS_KEPT]
    for path, line, name, _ in unset:
        print(f"{'' if name in KNOBS_KEPT else 'NOT KEPT  '}"
              f"{os.path.relpath(path, REPO)}:{line}  {name}")
    print(f"switches no caller outside tests sets: {len(unset)} "
          f"({len(offending)} not on the kept list)")
    return 1 if offending else 0


def _outputs(ref: str) -> int:
    """Byte-compare every scenario's JSON on *ref* and on this tree."""
    sys.path[:0] = [REPO, os.path.join(REPO, "src")]
    from repro.experiments import default_registry
    from tests.test_ids import REDUCED
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
            for key, value in REDUCED.get(name, {}).items():
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
