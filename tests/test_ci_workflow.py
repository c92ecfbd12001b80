"""The CI workflow, checked where it can be: nobody runs Actions locally.

``.github/workflows/ci.yml`` is text no tier-1 run executes, so a typo in
it — a path that moved, a scenario that was renamed, a scalar YAML cannot
parse — surfaces only after a push.  These tests read the file and hold it
to the tree: it parses, it has the five jobs ``docs/ARCHITECTURE.md``
("Gates") describes, and everything it names exists.
"""

import os
import re

import pytest

yaml = pytest.importorskip("yaml")

from repro.experiments import default_registry

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = ["tier1", "static-analysis", "determinism", "sweep-cli", "examples"]


@pytest.fixture(scope="module")
def workflow():
    with open(os.path.join(REPO, ".github", "workflows", "ci.yml"),
              encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def _commands(job):
    return [step["run"] for step in job["steps"] if "run" in step]


def test_workflow_has_exactly_the_five_jobs(workflow):
    assert list(workflow["jobs"]) == JOBS
    # PyYAML reads the bare key ``on`` as boolean True.
    assert set(workflow[True]) == {"push", "pull_request"}


def test_every_path_the_workflow_names_exists(workflow):
    named = set()
    for job in workflow["jobs"].values():
        for command in _commands(job):
            named.update(re.findall(
                r"\b(?:tests|benchmarks|examples)/[\w./-]*\w", command))
    assert "tests/census.py" in named and "examples/quickstart.py" in named
    missing = sorted(path for path in named
                     if not os.path.exists(os.path.join(REPO, path)))
    assert not missing


def test_every_scenario_the_workflow_names_is_registered(workflow):
    named = set()
    for job in workflow["jobs"].values():
        for command in _commands(job):
            named.update(re.findall(
                r"-m repro (?:run|sweep|describe) ([\w-]+)", command))
    assert "scale-grid-300k" in named
    assert named <= set(default_registry().names())


def _serial_parallel_pair(command, scenario):
    """The ``--jobs 1`` / ``--jobs 2`` sweeps of *scenario* in *command*,
    checked to differ only in ``--jobs`` and to be ``cmp``-ed; returns the
    serial one's arguments."""
    sweeps = re.findall(rf"-m repro sweep {scenario} (.*?)--out (\S+)",
                        command.replace("\\\n", " "))
    assert len(sweeps) == 2
    (serial, serial_out), (parallel, parallel_out) = sweeps
    assert "--jobs 1 " in serial and "--jobs 2 " in parallel
    assert serial.replace("--jobs 1", "--jobs 2") == parallel
    assert f"cmp {serial_out} {parallel_out}" in command
    return serial


def test_piece_level_swarm_is_swept_serial_and_parallel(workflow):
    """``blast`` pins ``bittorrent_mode="fluid"``; one ``--jobs 1`` /
    ``--jobs 2`` pair must run the piece model and compare the outputs."""
    piece = [command for command in _commands(workflow["jobs"]["sweep-cli"])
             if "bittorrent_mode=piece" in command]
    assert len(piece) == 1
    serial = _serial_parallel_pair(piece[0], "distribution")
    assert "--set protocol=bittorrent" in serial


def test_allocation_pass_is_swept_at_runtime_grid_size(workflow):
    """The determinism job runs REDUCED sizes; one ``--jobs 1`` /
    ``--jobs 2`` pair runs ``scale-grid`` at the size perfbench's
    ``runtime-grid`` times, over two seeds, uncached."""
    grid = [command for command in _commands(workflow["jobs"]["sweep-cli"])
            if "-m repro sweep scale-grid " in command]
    assert len(grid) == 1
    serial = _serial_parallel_pair(grid[0], "scale-grid")
    for argument in ("--set n_hosts=500 ", "--set n_data=2500 ",
                     "--grid seed=1,2 ", "--no-cache "):
        assert argument in serial


def test_determinism_is_one_gate(workflow):
    """All 28 scenarios are double-run by ``census.py outputs``; no other
    job compares two ``repro run`` outputs of its own (the serial-vs-
    ``--jobs`` sweep pairs are a different check and stay)."""
    jobs = workflow["jobs"]
    assert "python tests/census.py outputs HEAD" in _commands(
        jobs["determinism"])
    for name, job in jobs.items():
        if name == "determinism":
            continue
        for command in _commands(job):
            assert not ("cmp " in command and "repro run" in command), (
                f"job {name!r} byte-compares `repro run` outputs:\n{command}")
