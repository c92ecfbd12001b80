"""detlint: the determinism & architecture linter (repro.analysis).

Covers, per ISSUE 9:

* one seeded violation per rule in ``tests/detlint_fixtures/`` — each
  test asserts the exact rule id *and* line number of the seed;
* pragma handling: suppression round-trip, reason-required (LINT001),
  unused-pragma (LINT002);
* the self-hosting gate: ``src/repro`` lints clean with zero
  unsuppressed findings;
* the CLI surface (exit codes, JSON format, --list-rules);
* the sibling AST gates, ``tests/census.py state`` (write-only state) and
  ``tests/census.py knobs`` (switches only tests set);
* the one-copy contract: ``deepcopy`` has exactly one site in ``src/repro``;
* the collector's one owner: ``gc`` is imported only by
  ``bench/scale.py::_gc_paused``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import default_config, run_checks
from repro.analysis.cli import main as lint_main
from repro.analysis.config import permissive_config
from repro.analysis.engine import default_scan_root
from tests import census

FIXTURES = Path(__file__).parent / "detlint_fixtures"


def seed_line(path: Path, marker: str) -> int:
    """1-based line of the ``# SEED:<marker>`` comment in a fixture."""
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if f"SEED:{marker}" in line:
            return number
    raise AssertionError(f"no SEED:{marker} marker in {path}")


def lint_fixture(name: str, **kwargs):
    return run_checks(FIXTURES / name, config=permissive_config(), **kwargs)


# ---------------------------------------------------------------------------
# One seeded violation per DET rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture, rule", [
    ("det001_wallclock.py", "DET001"),
    ("det002_rng.py", "DET002"),
    ("det003_set_iter.py", "DET003"),
    ("det004_dict_iter.py", "DET004"),
    ("det005_identity.py", "DET005"),
    ("det006_process_state.py", "DET006"),
])
def test_det_fixture_flags_exactly_its_seed(fixture: str, rule: str) -> None:
    report = lint_fixture(fixture)
    assert [f.rule for f in report.findings] == [rule], report.findings
    assert report.findings[0].line == seed_line(FIXTURES / fixture, rule)
    assert not report.suppressed


def test_det003_sorted_wrapping_is_clean(tmp_path: Path) -> None:
    clean = tmp_path / "sorted_ok.py"
    clean.write_text(
        "hosts = {'a', 'b'}\n"
        "for name in sorted(hosts):\n"
        "    print(name)\n")
    report = run_checks(clean, config=permissive_config())
    assert report.ok, report.findings


def test_det006_global_rebinding_and_class_level_counters(tmp_path: Path) -> None:
    dirty = tmp_path / "state.py"
    dirty.write_text(
        "from itertools import count\n"
        "_BASELINE = None\n"
        "class Thing:\n"
        "    _ids = count(1)\n"
        "def remember(value):\n"
        "    global _BASELINE\n"
        "    _BASELINE = value\n")
    report = run_checks(dirty, config=permissive_config())
    assert [(f.rule, f.line) for f in report.findings] \
        == [("DET006", 4), ("DET006", 6)], report.findings


def test_det006_flags_a_counter_re_added_to_the_real_tree(tmp_path: Path) -> None:
    """The rule bites where the bug lived: ``net/flows.py`` in ``src/repro``."""
    flows = default_scan_root() / "net" / "flows.py"
    copy = tmp_path / "net" / "flows.py"
    copy.parent.mkdir()
    copy.write_text(flows.read_text()
                    + "\nimport itertools\n_flow_counter = itertools.count()\n")
    report = run_checks(tmp_path, config=default_config())
    assert [(f.rule, f.path) for f in report.findings] \
        == [("DET006", "net/flows.py")], report.findings


def test_det001_a_scenario_reading_the_host_clock_is_a_finding(
        tmp_path: Path) -> None:
    """``bench/`` is not on the wall-clock allowlist: scenarios do not time
    themselves."""
    harness = tmp_path / "bench" / "x.py"
    harness.parent.mkdir()
    harness.write_text("import time\nstarted = time.perf_counter()\n")
    report = run_checks(tmp_path, config=default_config())
    assert [(f.rule, f.path, f.line) for f in report.findings] \
        == [("DET001", "bench/x.py", 2)], report.findings


def test_wallclock_allowlist_has_no_dead_rows() -> None:
    """Every row forgives a clock read that exists: without it, DET001."""
    rows = default_config().wallclock_allowlist
    assert sorted(rows) == ["__main__.py", "experiments/executor.py"]
    for prefix in rows:
        kept = {row: why for row, why in rows.items() if row != prefix}
        report = run_checks(rules=["DET001"], config=replace(
            default_config(), wallclock_allowlist=kept))
        reads = [f.path for f in report.findings if f.rule == "DET001"]
        assert reads and all(path.startswith(prefix) for path in reads), \
            (prefix, reads)


def test_det004_only_applies_to_hot_modules(tmp_path: Path) -> None:
    cold = tmp_path / "cold.py"
    cold.write_text(
        "table = {'a': 1}\n"
        "for k, v in table.items():\n"
        "    print(k, v)\n")
    hot = run_checks(cold, config=permissive_config(hot=("",)))
    assert [f.rule for f in hot.findings] == ["DET004"]
    off = run_checks(cold, config=permissive_config(hot=()))
    assert off.ok, off.findings


# ---------------------------------------------------------------------------
# ARCH rules over a miniature package tree
# ---------------------------------------------------------------------------

def test_arch001_upward_edge_reports_the_import(tmp_path_factory) -> None:
    report = run_checks(FIXTURES / "arch_tree", config=permissive_config(),
                        rules=["ARCH001"])
    assert [f.rule for f in report.findings] == ["ARCH001"]
    finding = report.findings[0]
    assert finding.path == "sim/bad_upward.py"
    assert finding.line == seed_line(
        FIXTURES / "arch_tree/sim/bad_upward.py", "ARCH001")
    assert "sim -> services" in finding.message


def test_arch002_flags_surface_breaches_import_and_attribute() -> None:
    report = run_checks(FIXTURES / "arch_tree", config=permissive_config(),
                        rules=["ARCH002"])
    surface = FIXTURES / "arch_tree/services/bad_surface.py"
    expected = {
        ("ARCH002", seed_line(surface, "ARCH002-import")),
        ("ARCH002", seed_line(surface, "ARCH002-attr")),
    }
    got = {(f.rule, f.line) for f in report.findings
           if f.path == "services/bad_surface.py"}
    assert got == expected, report.findings


def test_kernel_surface_is_pinned_exactly(tmp_path: Path) -> None:
    """The surface is the contract a second backend must meet: growing it
    is a deliberate edit here, not a side effect of a new import."""
    config = default_config()
    assert config.sim_import_surface == {
        "repro.sim": frozenset({
            "AllOf", "Environment", "Event", "Process", "RandomStreams",
            "Resource", "SimulationError", "Timeout", "Timer",
            "derive_seed", "ids"}),
        "repro.sim.ids": frozenset({"rewind"}),
        "repro.sim.kernel": frozenset({
            "AllOf", "Environment", "Event", "Process", "SimulationError",
            "Timeout", "Timer"}),
        "repro.sim.resources": frozenset({"Request", "Resource"}),
        "repro.sim.rng": frozenset({"RandomStreams", "derive_seed"}),
        "repro.sim.scheduler": frozenset(),
    }
    assert config.env_surface == frozenset({
        "all_of", "call_later", "event", "now", "process",
        "processed_events", "run", "settle", "timeout"})

    # A deleted primitive creeping back in outside sim/ is a finding.
    tree = tmp_path / "tree"
    (tree / "services").mkdir(parents=True)
    (tree / "services" / "queue.py").write_text(
        "from repro.sim import Store\n"
        "from repro.sim.resources import Resource, Store as Queue\n")
    report = run_checks(tree, config=config, rules=["ARCH002"])
    assert [(f.rule, f.line) for f in report.findings] \
        == [("ARCH002", 1), ("ARCH002", 2)], report.findings


def test_arch001_exemption_forgives_a_declared_edge(tmp_path: Path) -> None:
    tree = tmp_path / "tree"
    (tree / "sim").mkdir(parents=True)
    (tree / "sim" / "edge.py").write_text("import repro.services\n")
    config = permissive_config()
    flagged = run_checks(tree, config=config, rules=["ARCH001"])
    assert not flagged.ok
    from dataclasses import replace
    forgiven = run_checks(
        tree,
        config=replace(config, layer_exemptions={
            ("sim/edge.py", "services"): "test: sanctioned edge"}),
        rules=["ARCH001"])
    assert forgiven.ok, forgiven.findings


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------

def test_pragma_with_reason_suppresses() -> None:
    report = lint_fixture("pragma_ok.py")
    assert report.ok, report.findings
    assert [f.rule for f in report.suppressed] == ["DET001"]


def test_pragma_without_reason_is_malformed_and_suppresses_nothing() -> None:
    report = lint_fixture("pragma_missing_reason.py")
    rules = sorted(f.rule for f in report.findings)
    assert rules == ["DET001", "LINT001"], report.findings
    assert not report.suppressed


def test_unused_pragma_is_flagged() -> None:
    report = lint_fixture("pragma_unused.py")
    assert [f.rule for f in report.findings] == ["LINT002"], report.findings


# ---------------------------------------------------------------------------
# Self-hosting: this repository lints clean
# ---------------------------------------------------------------------------

def test_self_scan_is_clean() -> None:
    report = run_checks()
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.files_scanned >= 90
    # Every suppression necessarily carried a reason (LINT001 otherwise),
    # and every pragma suppressed something (LINT002 otherwise).
    assert all(f.rule.startswith(("DET", "ARCH"))
               for f in report.suppressed)


def test_default_scan_root_is_the_repro_package() -> None:
    root = default_scan_root()
    assert root.name == "repro"
    assert (root / "sim" / "kernel.py").is_file()
    assert default_config().root_package == "repro"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_exit_codes_and_json(tmp_path: Path, capsys) -> None:
    dirty = FIXTURES / "det001_wallclock.py"
    assert lint_main([str(dirty), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["findings"][0]["rule"] == "DET001"

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean)]) == 0

    assert lint_main([str(dirty), "--rules", "NOPE999"]) == 2
    assert lint_main([str(tmp_path / "missing.py")]) == 2


def test_cli_list_rules(capsys) -> None:
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET003", "DET004", "DET005",
                    "DET006", "ARCH001", "ARCH002"):
        assert rule_id in out


# ---------------------------------------------------------------------------
# Write-only state and unset switches (tests/census.py state / knobs, the CI
# static-analysis gates)
# ---------------------------------------------------------------------------

def test_state_census_fails_on_a_stored_never_loaded_attribute(
        tmp_path: Path, capsys) -> None:
    (tmp_path / "fixture.py").write_text(
        "class Meter:\n"
        "    def __init__(self):\n"
        "        self.never_read_back = 0\n"
        "        self.total = 0\n"
        "    def add(self, n):\n"
        "        self.never_read_back += 1\n"
        "        self.total += n\n"
        "        return self.total\n")
    assert census.main(["census.py", "state", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "NOT KEPT" in out and "fixture.py:3  Meter.never_read_back" in out
    assert "fixture.py:6  Meter.never_read_back" in out
    assert "Meter.total" not in out
    # The tree itself carries no write-only state off the kept list.
    assert census.main(["census.py", "state"]) == 0


def test_knobs_census_fails_on_a_switch_no_caller_sets(
        tmp_path: Path, capsys) -> None:
    (tmp_path / "fixture.py").write_text(
        "from repro.experiments.registry import scenario\n"
        "class Pump:\n"
        "    def __init__(self, depth=3, rate=1.0, never_flipped=True,\n"
        "                 mode='fast', limit=None, width=2):\n"
        "        pass\n"
        "@scenario('pump')\n"
        "def run_pump(coalesce=True):\n"
        "    return Pump(5, mode='slow', width=2)\n")
    assert census.main(["census.py", "knobs", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "NOT KEPT  " in out
    # A number, a switch and a None no caller sets, and a value passed only
    # as its default's own literal, are one value in use.
    for name in ("(rate)", "(never_flipped)", "(limit)", "(width)"):
        assert f"fixture.py:3  Pump.__init__{name}" in out
    # A value passed by position or by keyword is set, and a scenario's
    # parameters are what ``--set`` sets.
    for name in ("(depth)", "(mode)", "(coalesce)"):
        assert name not in out
    assert "settable values: 6;" in out
    # The tree itself has no such parameter off the kept list.
    assert census.main(["census.py", "knobs"]) == 0


# ---------------------------------------------------------------------------
# One copy (docs/ARCHITECTURE.md, "What the catalog stores")
# ---------------------------------------------------------------------------

def test_deepcopy_is_referenced_at_exactly_one_site() -> None:
    """Immutable records are stored in place and the one mutable row type goes
    through ``Database._snapshot``: a defensive ``deepcopy`` reappearing
    anywhere else in ``src/repro`` fails here."""
    root = default_scan_root()
    sites = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # ``copy.deepcopy``, a bare ``deepcopy``, ``from copy import deepcopy``
            if "deepcopy" in {getattr(node, field, None)
                              for field in ("attr", "id", "name")}:
                sites.append(path.relative_to(root).as_posix())
    assert sites == ["storage/database.py"]


# ---------------------------------------------------------------------------
# The collector's one owner (docs/ARCHITECTURE.md §5, "The scale tier's
# collector policy")
# ---------------------------------------------------------------------------

def test_gc_is_imported_only_by_the_scale_tier_pause() -> None:
    """How a run's collector time is charged is decided in one place: an
    ad-hoc ``gc.collect()`` or ``gc.disable()`` anywhere else in
    ``src/repro`` would need an ``import gc`` and fails here."""
    root = default_scan_root()
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "gc" in modules:
                sites.append((path.relative_to(root).as_posix(),
                              owner.get(node)))
    assert sites == [("bench/scale.py", "_gc_paused")]
