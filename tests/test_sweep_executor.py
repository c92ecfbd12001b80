"""Tests for the parallel sweep executor, the result cache and their CLI."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import (
    ResultCache,
    ScenarioRegistry,
    ScenarioSpec,
    default_registry,
    derive_point_seed,
    execute_sweep,
    run_spec,
)
from repro.experiments.cache import code_version_salt, point_key
from repro.experiments.executor import PointFailure

GRID = {"n_nodes": [2, 3]}
BASE = {"size_mb": 1.0}

# distribution with an unregistered protocol raises inside the runner — the
# deliberate crash used to exercise failure isolation (including in workers).
FAILING_GRID = {"protocol": ["ftp", "nope"]}
FAILING_BASE = {"size_mb": 1.0, "n_nodes": 2}


# ---------------------------------------------------------------------------
# Content-addressed keys and per-point seeds
# ---------------------------------------------------------------------------

class TestPointKey:
    def test_stable_and_order_insensitive(self):
        first = point_key("fig4", {"replica": 3, "seed": 7}, salt="s")
        second = point_key("fig4", {"seed": 7, "replica": 3}, salt="s")
        assert first == second
        assert len(first) == 64

    def test_sensitive_to_every_component(self):
        base = point_key("fig4", {"seed": 7}, salt="s")
        assert point_key("fig5", {"seed": 7}, salt="s") != base
        assert point_key("fig4", {"seed": 8}, salt="s") != base
        assert point_key("fig4", {"seed": 7}, salt="t") != base

    def test_code_salt_is_memoised_and_hexadecimal(self):
        salt = code_version_salt()
        assert salt == code_version_salt()
        int(salt, 16)


class TestDerivePointSeed:
    def test_deterministic(self):
        assert derive_point_seed(7, "fig4", {"replica": 3}) \
            == derive_point_seed(7, "fig4", {"replica": 3})

    def test_varies_with_content_not_position(self):
        seeds = {derive_point_seed(7, "fig4", {"replica": r})
                 for r in (1, 2, 3, 5)}
        assert len(seeds) == 4
        assert derive_point_seed(8, "fig4", {"replica": 3}) \
            != derive_point_seed(7, "fig4", {"replica": 3})


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_round_trip_and_accounting(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run = {"scenario": "toy", "results": {"x": 1.5}}
        assert cache.get("ab" + "0" * 62) is None
        cache.put("ab" + "0" * 62, "toy", run)
        assert cache.get("ab" + "0" * 62) == run
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "cd" + "0" * 62
        cache.put(key, "toy", {"ok": True})
        with open(cache._path(key), "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None

    def test_unwritable_cache_degrades_to_no_op(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should be")
        cache = ResultCache(str(blocker))
        cache.put("ab" + "0" * 62, "toy", {"x": 1})    # must not raise
        assert cache.stats.stores == 0
        assert cache.get("ab" + "0" * 62) is None

    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(3):
            cache.put(f"{i:02d}" + "0" * 62, f"scn{i}", {"i": i})
        entries = cache.entries()
        assert len(entries) == 3 == len(cache)
        assert {e["scenario"] for e in entries} == {"scn0", "scn1", "scn2"}
        assert cache.size_bytes() > 0
        assert cache.clear() == 3
        assert cache.entries() == []


# ---------------------------------------------------------------------------
# Executor determinism
# ---------------------------------------------------------------------------

class TestExecutorDeterminism:
    def test_serial_and_parallel_byte_identical(self):
        serial = execute_sweep("ftp-alone", GRID, base_params=BASE, jobs=1)
        parallel = execute_sweep("ftp-alone", GRID, base_params=BASE, jobs=2)
        assert serial.to_json() == parallel.to_json()
        assert [p.spec.params["n_nodes"] for p in parallel.points] == [2, 3]

    def test_history_dependent_scenario_is_jobs_and_order_invariant(self):
        """blast/bittorrent seeds its RNG streams from ``host.uid``: a point
        must not see the ids the previous point on its worker consumed."""
        base = {"transfer_protocol": "bittorrent"}
        counts = [10, 20, 30, 40]
        serial = execute_sweep("blast", {"n_workers": counts},
                               base_params=base, jobs=1)
        parallel = execute_sweep("blast", {"n_workers": counts},
                                 base_params=base, jobs=2)
        assert serial.to_json() == parallel.to_json()
        backwards = execute_sweep("blast", {"n_workers": counts[::-1]},
                                  base_params=base, jobs=1)
        assert [p.run for p in serial.points] \
            == [p.run for p in backwards.points[::-1]]

    def test_sweep_document_is_each_points_run_document(self):
        expected = {
            "scenario": "ftp-alone",
            "grid": GRID,
            "runs": [run_spec(ScenarioSpec(
                "ftp-alone", dict(BASE, n_nodes=n))).to_dict()
                for n in GRID["n_nodes"]],
        }
        outcome = execute_sweep("ftp-alone", GRID, base_params=BASE, jobs=2)
        assert json.dumps(expected, indent=2, sort_keys=True) + "\n" \
            == outcome.to_json()

    def test_derived_seeds_are_jobs_invariant_and_distinct(self):
        grid = {"replica": [3, 5]}
        serial = execute_sweep("fig4", grid, base_params={
            "seed": 7, "n_initial": 3, "n_spare": 2, "size_mb": 1.0,
            "settle_s": 30.0, "horizon_s": 60.0}, derive_seeds=True)
        parallel = execute_sweep("fig4", grid, base_params={
            "seed": 7, "n_initial": 3, "n_spare": 2, "size_mb": 1.0,
            "settle_s": 30.0, "horizon_s": 60.0}, jobs=2, derive_seeds=True)
        assert serial.to_json() == parallel.to_json()
        seeds = [p.spec.params["seed"] for p in serial.points]
        assert len(set(seeds)) == 2
        assert seeds == [derive_point_seed(7, "fig4", {"replica": 3}),
                         derive_point_seed(7, "fig4", {"replica": 5})]

    def test_unknown_grid_parameter_fails_fast(self):
        with pytest.raises(ValueError, match="no parameter"):
            execute_sweep("ftp-alone", {"bogus": [1, 2]},
                          base_params=BASE, jobs=2)


# ---------------------------------------------------------------------------
# Cache integration
# ---------------------------------------------------------------------------

class TestExecutorCache:
    def test_hit_miss_accounting_and_byte_identity(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = execute_sweep("ftp-alone", GRID, base_params=BASE, cache=cache)
        assert cold.stats.executed == 2
        assert cold.stats.cache_hits == 0
        assert cache.stats.misses == 2 and cache.stats.stores == 2

        warm = execute_sweep("ftp-alone", GRID, base_params=BASE, cache=cache)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == 2
        assert all(p.cached for p in warm.points)
        assert warm.to_json() == cold.to_json()

    def test_partial_cache_reuses_only_matching_points(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        execute_sweep("ftp-alone", {"n_nodes": [2]}, base_params=BASE,
                      cache=cache)
        grown = execute_sweep("ftp-alone", {"n_nodes": [2, 3]},
                              base_params=BASE, cache=cache)
        assert grown.stats.cache_hits == 1
        assert grown.stats.executed == 1
        assert [p.cached for p in grown.points] == [True, False]

    def test_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = execute_sweep("distribution", FAILING_GRID,
                              base_params=FAILING_BASE, cache=cache)
        assert first.stats.failed == 1
        second = execute_sweep("distribution", FAILING_GRID,
                               base_params=FAILING_BASE, cache=cache)
        assert second.stats.cache_hits == 1       # the ftp point
        assert second.stats.executed == 1         # the crash re-runs


# ---------------------------------------------------------------------------
# Crash isolation
# ---------------------------------------------------------------------------

class TestFailureIsolation:
    def test_structured_failure_entry(self):
        outcome = execute_sweep("distribution", FAILING_GRID,
                                base_params=FAILING_BASE)
        assert not outcome.ok and outcome.stats.failed == 1
        good, bad = outcome.points
        assert good.ok and bad.failure is not None
        assert bad.failure.error == "UnknownProtocolError"
        assert "UnknownProtocolError" in bad.failure.traceback
        # KeyError subclasses must not leak repr()-quoted messages.
        assert bad.failure.message.startswith("no transfer protocol")
        entry = outcome.to_dict()["runs"][1]
        assert entry["failure"]["error"] == "UnknownProtocolError"
        assert entry["spec"]["params"]["protocol"] == "nope"
        assert "results" not in entry

    def test_failure_isolation_in_pool_workers(self):
        outcome = execute_sweep("distribution", FAILING_GRID,
                                base_params=FAILING_BASE, jobs=2)
        assert outcome.points[0].ok
        assert outcome.points[1].failure.error == "UnknownProtocolError"

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the toy scenario reaches workers by fork")
    def test_hard_worker_death_finishes_the_point_in_process(self):
        """A pool worker killed mid-point (signal, OOM) breaks the pool for
        every in-flight point; each is finished in-process, none is recorded
        as a spurious ``BrokenProcessPool`` failure."""
        registry = default_registry()

        def dies_in_a_worker(parent_pid: int, x: int = 0):
            """Toy."""
            if os.getpid() != parent_pid:
                os._exit(1)
            return {"x": x}

        registry.register("dies-in-a-worker", dies_in_a_worker, title="toy")
        try:
            outcome = execute_sweep(
                "dies-in-a-worker", {"x": [1, 2, 3]},
                base_params={"parent_pid": os.getpid()}, jobs=2)
        finally:
            del registry._definitions["dies-in-a-worker"]
        assert outcome.ok and outcome.stats.executed == 3
        assert [p.run["results"]["x"] for p in outcome.points] == [1, 2, 3]

    def test_custom_registry_falls_back_inline(self):
        registry = ScenarioRegistry()
        calls = []

        def toy(x: int = 1):
            """Toy."""
            calls.append(x)
            return {"x": x}

        registry.register("toy", toy, title="toy")
        outcome = execute_sweep("toy", {"x": [1, 2, 3]}, registry=registry,
                                jobs=4)
        assert [p.run["results"]["x"] for p in outcome.points] == [1, 2, 3]
        assert calls == [1, 2, 3]                  # ran in this process

    def test_progress_lines(self):
        lines = []
        execute_sweep("distribution", FAILING_GRID, base_params=FAILING_BASE,
                      progress=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("[1/2] distribution protocol=ftp")
        assert "… FAILED (UnknownProtocolError: no transfer protocol" \
            in lines[1]

    def test_point_failure_to_dict(self):
        failure = PointFailure(error="E", message="m", traceback="tb")
        assert failure.to_dict() == {
            "error": "E", "message": "m", "traceback": "tb"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestSweepCLI:
    ARGS = ["sweep", "ftp-alone", "--grid", "n_nodes=2,3",
            "--set", "size_mb=1.0", "--quiet"]

    def test_jobs_byte_identical_and_rerun_fully_cached(self, tmp_path,
                                                        capsys):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        rerun = tmp_path / "rerun.json"
        cache_dir = str(tmp_path / "cache")
        assert cli_main(self.ARGS + ["--no-cache", "--out", str(serial)]) == 0
        assert cli_main(self.ARGS + ["--jobs", "2", "--cache-dir", cache_dir,
                                     "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

        args = [a for a in self.ARGS if a != "--quiet"]
        assert cli_main(args + ["--jobs", "2", "--cache-dir", cache_dir,
                                "--out", str(rerun)]) == 0
        assert rerun.read_bytes() == serial.read_bytes()
        captured = capsys.readouterr()
        assert "(0 run, 2 cached, 0 failed)" in captured.out
        assert captured.err.count("cached") == 2   # progress lines on stderr

    def test_failed_point_exit_code_and_entry(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = cli_main(["sweep", "distribution", "--grid",
                         "protocol=ftp,nope", "--set", "size_mb=1.0",
                         "--set", "n_nodes=2", "--no-cache", "--out",
                         str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["runs"][1]["failure"]["error"] == "UnknownProtocolError"
        assert "FAILED" in capsys.readouterr().out

    def test_seed_per_point_writes_derived_seeds(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert cli_main(["sweep", "fig4", "--grid", "replica=3,5",
                         "--seed", "7", "--seed-per-point",
                         "--set", "n_initial=3", "--set", "n_spare=2",
                         "--set", "size_mb=1.0", "--set", "settle_s=30.0",
                         "--set", "horizon_s=60.0", "--no-cache",
                         "--quiet", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        seeds = [run["spec"]["params"]["seed"] for run in doc["runs"]]
        assert seeds == [derive_point_seed(7, "fig4", {"replica": 3}),
                         derive_point_seed(7, "fig4", {"replica": 5})]

    def test_malformed_grid_is_a_clean_error(self, capsys):
        assert cli_main(["sweep", "ftp-alone", "--grid", "=2",
                         "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "empty parameter name" in err and "Traceback" not in err

    def test_unknown_grid_parameter_is_a_clean_error(self, capsys):
        assert cli_main(["sweep", "ftp-alone", "--grid", "bogus=1,2",
                         "--set", "size_mb=1.0", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "no parameter" in err and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_clean_error(self, jobs, capsys):
        progress = []
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            execute_sweep("ftp-alone", GRID, base_params=BASE,
                          jobs=int(jobs), progress=progress.append)
        assert progress == []                      # before any point ran
        assert cli_main(self.ARGS + ["--no-cache", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err == "error: jobs must be at least 1\n"

    def test_unknown_set_parameter_is_a_clean_error(self, capsys):
        assert cli_main(["sweep", "ftp-alone", "--grid", "n_nodes=2",
                         "--set", "bogus=1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "no parameter" in err and "Traceback" not in err


class TestRunCLI:
    def test_run_with_cache_hits_second_time(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["run", "ftp-alone", "--set", "size_mb=1.0",
                "--set", "n_nodes=2", "--cache-dir", cache_dir]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert cli_main(args + ["--out", str(second)]) == 0
        assert "(cached)" in capsys.readouterr().out
        assert first.read_bytes() == second.read_bytes()

    def test_loading_the_registry_leaves_the_process_pool_unimported(self):
        """Only ``sweep --jobs N>1`` uses a process pool; a plain run must
        not load ``concurrent.futures`` and the stack behind it."""
        pool_stack = ["concurrent.futures", "multiprocessing", "subprocess",
                      "socket", "selectors", "logging"]
        probe = ("import sys\n"
                 "from repro.experiments.runner import default_registry\n"
                 "default_registry()\n"
                 f"print([m for m in {pool_stack!r} if m in sys.modules])\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]"


class TestCacheCLI:
    def _populate(self, cache_dir):
        assert cli_main(["sweep", "ftp-alone", "--grid", "n_nodes=2,3",
                         "--set", "size_mb=1.0", "--cache-dir", cache_dir,
                         "--quiet"]) == 0

    def test_stats_ls_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        self._populate(cache_dir)
        capsys.readouterr()

        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries   : 2" in out and "ftp-alone" in out

        assert cli_main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("ftp-alone") == 2

        assert cli_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 2 cached results" in capsys.readouterr().out

        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries   : 0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Docs stay in sync with BENCH.json
# ---------------------------------------------------------------------------

class TestBenchmarksDoc:
    def test_benchmarks_doc_covers_every_bench_point(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        doc = open(os.path.join(root, "docs", "BENCHMARKS.md")).read()
        bench = json.load(open(os.path.join(root, "BENCH.json")))
        for bench_point in bench["points"]:
            assert f"`{bench_point['id']}`" in doc, (
                f"docs/BENCHMARKS.md misses BENCH point {bench_point['id']!r}")
        # The regeneration command must be spelled out for the whole file.
        assert "pytest benchmarks/test_scale_grid.py" in doc
