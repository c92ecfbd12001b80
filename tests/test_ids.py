"""A run is a pure function of (spec, seed): ids, clock and bytes.

``repro.sim.ids`` owns the host / flow / transfer / handle / AUID
sequences and ``run_spec`` rewinds them on entry, so a scenario gives the
same bytes whether it runs first in a fresh interpreter, after other runs
in this process, or on a reused pool worker.  No scenario reads the host
clock, and what one returns is exactly what ``--out`` writes.
"""

import inspect
import json
import os
import subprocess
import sys
import time

import pytest

from repro.experiments import ScenarioSpec, default_registry, run_spec
from repro.sim import ids

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

SCENARIOS = [d.name for d in default_registry().definitions()]


def _reduced(name):
    return default_registry().get(name).sizes("reduced")

HOST_CLOCKS = [clock + suffix for suffix in ("", "_ns") for clock in
               ("time", "monotonic", "perf_counter", "process_time")]


def _run(name, **overrides):
    params = dict(_reduced(name), **overrides)
    return run_spec(ScenarioSpec(name, params))


def _json(name, **overrides):
    return _run(name, **overrides).to_json()


def _host_clock_read(*_args):
    raise AssertionError("a scenario read the host clock")


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_table_covers_every_scenario_without_an_all_defaults_form():
    needs_params = {
        d.name for d in default_registry().definitions()
        if inspect.Parameter.empty in d.parameters().values()}
    assert needs_params <= {name for name in SCENARIOS if _reduced(name)}


@pytest.mark.parametrize("name", SCENARIOS)
def test_second_in_process_run_is_byte_identical(name, monkeypatch):
    with monkeypatch.context() as patch:
        for clock in HOST_CLOCKS:
            patch.setattr(time, clock, _host_clock_read)
        first, second = _run(name), _run(name)
    assert first.to_json() == second.to_json()
    # Returned == written: serialisation drops nothing and converts nothing.
    assert json.loads(first.to_json())["results"] == first.results


@pytest.mark.parametrize("name", ["fig5", "fabric-rebalance", "fig4"])
def test_in_process_run_equals_fresh_interpreter_cli(name, tmp_path):
    out = tmp_path / "fresh.json"
    argv = [sys.executable, "-m", "repro", "run", name, "--quiet",
            "--no-cache", "--out", str(out)]
    for key, value in _reduced(name).items():
        argv += ["--set", f"{key}={value}"]
    subprocess.run(argv, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    _json("blast")                      # drift every sequence first
    assert _json(name) == out.read_text()


def test_smaller_run_in_between_does_not_leak_into_the_next():
    """blast/bittorrent names its RNG streams after ``host.uid``."""
    first = _json("blast", n_workers=8)
    _json("blast", n_workers=5)
    assert _json("blast", n_workers=8) == first


def test_import_consumes_exactly_one_auid():
    """``AUID_RUN_BASELINE`` is a constant: pin what import time draws.

    Importing every ``repro`` module builds ``DEFAULT_ATTRIBUTE``
    (``attribute:1``) and nothing else that draws an id, so a first run
    already starts where :func:`ids.rewind` puts every later one.
    """
    out = _fresh_interpreter(
        "import importlib, pkgutil, repro\n"
        "from repro.sim import ids\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if m.name != 'repro.__main__':\n"
        "        importlib.import_module(m.name)\n"
        "from repro.core.attributes import DEFAULT_ATTRIBUTE\n"
        "from repro.storage.persistence import _NAMESPACE\n"
        "import uuid\n"
        "assert DEFAULT_ATTRIBUTE.uid == "
        "str(uuid.uuid5(uuid.UUID(bytes=_NAMESPACE), 'attribute:1'))\n"
        "print([next(s) for s in (ids.hosts, ids.flows, ids.transfers,\n"
        "                         ids.handles, ids.auids)])\n")
    assert out.strip() == str([0, 0, 1, 1, ids.AUID_RUN_BASELINE])


def test_rewind_restarts_all_five_sequences():
    for sequence in (ids.hosts, ids.flows, ids.transfers, ids.handles,
                     ids.auids):
        next(sequence)
    ids.rewind()
    assert [next(ids.hosts), next(ids.flows), next(ids.transfers),
            next(ids.handles), next(ids.auids)] \
        == [0, 0, 1, 1, ids.AUID_RUN_BASELINE]
