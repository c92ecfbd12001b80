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

Not collected by pytest (no ``test_`` prefix); ``__main__.py`` and
``analysis/`` are left out of the report (the CLI and the linter have
their own tests and no scenario drives them).
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.join(REPO, "src", "repro") + os.sep


def _trace(reached: set):
    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(ROOT):
            reached.add(f"{code.co_filename[len(ROOT):]}:{code.co_firstlineno}")
    return hook


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

    for folder, _dirs, files in os.walk(ROOT):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as handle:
                    walk(path[len(ROOT):], ast.parse(handle.read()), "",
                         None)
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


def main(argv) -> int:
    mode = argv[1]
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
