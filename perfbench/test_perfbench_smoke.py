"""Tier-1 smoke test of the benchmark (collected by ``pytest -x -q``).

``run --quick`` drives all five workloads at reduced sizes, k=1, untraced and
traced, in a few seconds.  The timings it produces mean nothing; the test
pins the *shape*: every metric ``BENCHMARK.json`` declares is reported with
its unit, nothing fails, the tree stays clean, and a trace target that no
longer resolves degrades to ``None`` plus a note.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from perfbench.compare import verdict
from perfbench.measure import ROOT, declaration, layer_metrics, require_source
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS


def _digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    bench_json = os.path.join(ROOT, "BENCH.json")
    before = _digest(bench_json)
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--quick",
         "--out", str(out / "result.json"), "--trace-out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with open(out / "result.json", encoding="utf-8") as handle:
        document = json.load(handle)
    return {"document": document, "stdout": done.stdout, "out": out,
            "bench_untouched": _digest(bench_json) == before}


def test_declaration_matches_the_workloads():
    declared = declaration()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["paths"] == ["perfbench"]
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])


def test_every_declared_metric_is_reported_with_its_unit(quick_run):
    declared = declaration()
    workloads = quick_run["document"]["workloads"]
    assert sorted(workloads) == sorted(WORKLOADS)
    for name, entry in workloads.items():
        for metric in declared["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"], (name, metric["name"])
            assert row["median"] > 0 and row["k"] == 1
        for metric in declared["per_layer"]:
            row = entry["per_layer"][metric["name"]]
            assert row["unit"] == metric["unit"], (name, metric["name"])
            assert row["value"] is not None, (name, metric["name"])
        assert not entry["notes"], entry["notes"]
        assert f"== {name}" in quick_run["stdout"]


def test_nothing_fails_and_layers_add_up(quick_run):
    for name, entry in quick_run["document"]["workloads"].items():
        assert entry["failed_share"] == 0 and entry["attempted"] > 0, name
        layers = entry["per_layer"]
        assert layers["sim.kernel.events"]["value"] > 0, name
        assert layers["trace.coverage"]["value"] > 0.5, name
        total = sum(row["value"] for metric, row in layers.items()
                    if metric.endswith(".self_s"))
        total += layers["experiments.dispatch_s"]["value"]
        total += layers["trace.other_s"]["value"]
        with open(quick_run["out"] / f"{name}.trace.json",
                  encoding="utf-8") as handle:
            trace = json.load(handle)
        assert total == pytest.approx(trace["traced_wall_s"], rel=1e-6), name
        assert trace["traceEvents"] and trace["aggregate"], name
    # Layers a workload bypasses read zero there, not null.
    layers = quick_run["document"]["workloads"]["storm-100k"]["per_layer"]
    assert layers["dht.chord.self_s"]["value"] == 0
    assert layers["net.rpc.calls"]["value"] == 0
    assert layers["workloads.cohort.self_s"]["value"] > 0


def test_the_tree_stays_clean(quick_run):
    assert quick_run["bench_untouched"], "the benchmark wrote BENCH.json"
    assert not os.path.exists(os.path.join(ROOT, "perfbench", "result.json"))


def test_missing_trace_target_reads_null_with_a_note():
    require_source()
    tracer = Tracer()
    tracer.install(targets=(
        ("dht.chord", "repro.dht.chord:ChordRing.renamed_away"),
        ("net.rpc", "repro.net.no_such_module:RpcChannel.invoke"),
    ))
    tracer.uninstall()
    assert set(tracer.notes) == {
        "repro.dht.chord:ChordRing.renamed_away",
        "repro.net.no_such_module:RpcChannel.invoke"}
    metrics = layer_metrics(tracer, results={}, import_s=0.1,
                            traced_wall_s=1.0)
    assert metrics["dht.chord.self_s"] is None
    assert metrics["dht.chord.joins"] is None
    assert metrics["net.rpc.calls"] is None
    assert metrics["workloads.cohort.self_s"] == 0.0   # still attributable
    assert metrics["trace.coverage"] == 0.0


def test_a_corrupted_pin_fails_the_repeat(tmp_path, monkeypatch):
    from perfbench import measure
    from perfbench.workloads import DEFAULT_SEED, Summary
    real = measure.load_expected()
    stats = real["workloads"]["storm-100k"]
    storm = WORKLOADS["storm-100k"]
    measure.check_expected(storm, DEFAULT_SEED, False,
                           Summary(stats, attempted=10, failed=0))
    corrupted = json.loads(json.dumps(real))
    corrupted["workloads"]["storm-100k"]["placed"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(corrupted))
    monkeypatch.setattr(measure, "EXPECTED_PATH", str(path))
    with pytest.raises(measure.Mismatch):
        measure.check_expected(storm, DEFAULT_SEED, False,
                               Summary(stats, attempted=10, failed=0))
    with pytest.raises(measure.Mismatch):      # off the pin: the invariants
        measure.check_expected(WORKLOADS["fig5-blast"], DEFAULT_SEED + 1,
                               False, Summary({}, attempted=10, failed=1))


def test_times_are_put_at_reference_speed(quick_run):
    from perfbench.hostspeed import at_reference_speed
    from perfbench.measure import END_TO_END
    raw = {"wall_s": 10.0, "run_s": 8.0, "setup_s": 2.0, "ops_per_s": 50.0,
           "peak_rss_mb": 70.0}
    # A host at half speed took twice as long as the reference would have.
    assert at_reference_speed(raw, END_TO_END, 0.5) == {
        "wall_s": 5.0, "run_s": 4.0, "setup_s": 1.0, "ops_per_s": 100.0,
        "peak_rss_mb": 70.0}
    for name, entry in quick_run["document"]["workloads"].items():
        assert len(entry["host_speed"]) == 1 and entry["host_speed"][0] > 0, name


def test_compare_verdicts():
    def sample(median, iqr, low, high):
        return {"median": median, "iqr": iqr, "min": low, "max": high}
    base = sample(10.0, 0.1, 9.9, 10.1)
    assert verdict(base, sample(10.2, 0.1, 10.1, 10.3), "lower",
                   0.05)["verdict"] == "same"
    assert verdict(base, sample(11.0, 0.1, 10.9, 11.1), "lower",
                   0.05)["verdict"] == "worse"
    assert verdict(base, sample(11.0, 0.1, 10.9, 11.1), "higher",
                   0.05)["verdict"] == "better"
    noisy = sample(10.4, 1.0, 9.5, 11.5)
    assert verdict(base, noisy, "lower", 0.05)["verdict"] == "unresolved"
    # setup_s: 0.15 s -> 0.22 s is +47 %, but inside the 0.10 s floor.
    small, moved = sample(0.15, 0.0, 0.15, 0.15), sample(0.22, 0.0, 0.22, 0.22)
    assert verdict(small, moved, "lower", 0.10)["verdict"] == "worse"
    assert verdict(small, moved, "lower", 0.10, floor=0.10)["verdict"] == "same"
