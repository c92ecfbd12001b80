"""Tests for the declarative experiment subsystem and the ``repro`` CLI."""

import inspect
import json

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import (
    ScenarioRegistry,
    ScenarioSpec,
    UnknownScenarioError,
    default_registry,
    execute_sweep,
    expand_grid,
    run_scenario,
    run_spec,
)
from repro.experiments.runner import json_safe


# ---------------------------------------------------------------------------
# ScenarioSpec round-trip
# ---------------------------------------------------------------------------

class TestScenarioSpec:
    def test_dict_round_trip(self):
        spec = ScenarioSpec("fig4", {"replica": 3, "seed": 7})
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.seed == 7

    def test_json_round_trip(self):
        spec = ScenarioSpec("distribution",
                            {"protocol": "ftp", "size_mb": 2.5, "seed": 0})
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec

    def test_to_dict_sorts_params(self):
        spec = ScenarioSpec("x", {"b": 1, "a": 2})
        assert list(spec.to_dict()["params"]) == ["a", "b"]

    def test_with_params_merges(self):
        spec = ScenarioSpec("x", {"a": 1})
        merged = spec.with_params(b=2, a=3)
        assert merged.params == {"a": 3, "b": 2}
        assert spec.params == {"a": 1}          # original untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec("")
        with pytest.raises(TypeError):
            ScenarioSpec("x", params=[1, 2])
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"params": {}})

    def test_seed_absent_is_none(self):
        assert ScenarioSpec("x", {}).seed is None


class TestExpandGrid:
    def test_cartesian_product_order(self):
        combos = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert combos == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            expand_grid({"a": []})

    def test_scalar_axis_rejected(self):
        with pytest.raises(TypeError):
            expand_grid({"a": 5})
        with pytest.raises(TypeError):
            expand_grid({"a": "abc"})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _toy_runner(x: int = 1, seed: int = 0):
    """Toy scenario."""
    return {"x": x, "seed": seed}


class TestRegistry:
    def test_register_and_get(self):
        registry = ScenarioRegistry()
        registry.register("toy", _toy_runner, title="toy")
        definition = registry.get("TOY")           # case-insensitive
        assert definition.name == "toy"
        assert definition.parameters() == {"x": 1, "seed": 0}
        assert definition.seeded

    def test_duplicate_rejected_unless_replace(self):
        registry = ScenarioRegistry()
        registry.register("toy", _toy_runner, title="toy")
        with pytest.raises(ValueError):
            registry.register("toy", _toy_runner, title="again")
        registry.register("toy", _toy_runner, title="again", replace=True)
        assert registry.get("toy").title == "again"

    def test_unknown_scenario_error_suggests(self):
        registry = default_registry()
        with pytest.raises(UnknownScenarioError) as err:
            registry.get("fig44")
        message = err.value.args[0]
        assert "fig4" in message and "known scenarios" in message

    def test_spec_rejects_unknown_param(self):
        definition = default_registry().get("fig4")
        with pytest.raises(ValueError, match="no parameter"):
            definition.spec(bogus=1)

    def test_spec_requires_params_without_default(self):
        definition = default_registry().get("distribution")
        with pytest.raises(ValueError, match="requires parameters"):
            definition.spec()
        spec = definition.spec(protocol="ftp", size_mb=1.0, n_nodes=2)
        assert spec.params["protocol"] == "ftp"
        assert spec.params["sync_period_s"] == 1.0      # default filled in

    def test_var_kwargs_scenarios_accept_extra(self):
        definition = default_registry().get("fig3a")
        assert definition.accepts_extra_params()
        spec = definition.spec(monitor_period_s=0.5)     # forwarded kwarg
        assert spec.params["monitor_period_s"] == 0.5


class TestCatalog:
    def test_catalog_has_paper_and_new_scenarios(self):
        registry = default_registry()
        names = registry.names()
        assert len(names) >= 9
        for name in ("table1", "table2", "table3", "fig3a", "fig3bc",
                     "fig4", "fig5", "fig6", "sync-storm", "scale-grid"):
            assert name in names
        for name in ("flash-crowd", "fig4-weibull", "catalog-load",
                     "mapreduce-churn"):
            assert name in names

    def test_every_definition_documents_itself(self):
        for definition in default_registry().definitions():
            assert definition.title
            assert definition.paper_ref
            assert definition.module
            assert definition.summary

    def test_experiments_doc_covers_catalog(self):
        import os
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "docs", "EXPERIMENTS.md")
        doc = open(path).read()
        for definition in default_registry().definitions():
            assert f"`{definition.name}`" in doc, (
                f"docs/EXPERIMENTS.md misses scenario {definition.name!r}")
            assert f"python -m repro run {definition.name}" in doc, (
                f"docs/EXPERIMENTS.md misses a CLI command for "
                f"{definition.name!r}")

    def test_bench_entry_points_dispatch_through_registry(self, monkeypatch):
        """The name a scenario's function is bound to in its module is the
        entry point: it runs the catalog entry of its own name, on the
        function the catalog holds."""
        import importlib
        from repro.experiments import runner
        calls = []
        monkeypatch.setattr(
            runner, "run_scenario",
            lambda name, **params: calls.append((name, params)))
        definitions = default_registry().definitions()
        assert len(definitions) == 28
        for definition in definitions:
            entry = getattr(importlib.import_module(definition.module),
                            definition.runner.__name__)
            assert entry.scenario_name == definition.name
            assert entry.scenario_impl is definition.runner
            required = {name: 1 for name, default
                        in definition.parameters().items()
                        if default is inspect.Parameter.empty}
            entry(**required)
            assert calls.pop() == (definition.name, required)

    def test_second_declaration_of_a_name_fails_naming_both_modules(self):
        from repro.experiments import scenario
        default_registry()
        with pytest.raises(ValueError) as err:
            @scenario("fig4", title="again")
            def run_fig4_again():
                """Never registered."""
        message = str(err.value)
        assert "'fig4'" in message
        assert "repro.bench.fault" in message and __name__ in message
        assert default_registry().get("fig4").module == "repro.bench.fault"

    def test_entry_point_keeps_signature_and_doc(self):
        from repro.bench.fault import run_fig4
        params = inspect.signature(run_fig4).parameters
        assert params["replica"].default == 5
        assert "Figure 4" in run_fig4.__doc__


# ---------------------------------------------------------------------------
# Runner + determinism
# ---------------------------------------------------------------------------

class TestRunner:
    def test_run_scenario_raw_results(self):
        rows = run_scenario("table1")
        assert len(rows) == 4

    def test_run_spec_resolves_defaults(self):
        result = run_spec(ScenarioSpec("table2-cell", {"n_creations": 200}))
        assert result.spec.params["engine"] == "hsqldb"
        assert isinstance(result.results, float)

    @pytest.mark.parametrize("results, error, message", [
        pytest.param({"rows": [0, {"report": object()}]}, TypeError,
                     r"results/rows\[1\]/report: object", id="object"),
        pytest.param({"mean_s": float("nan")}, ValueError,
                     "not JSON compliant", id="nan"),
    ])
    def test_unrepresentable_result_fails_loudly(self, results, error,
                                                 message):
        """Neither a ``repr`` string nor a bare ``NaN`` reaches ``--out``."""
        registry = ScenarioRegistry()
        registry.register("toy", lambda: results, title="toy")
        result = run_spec(ScenarioSpec("toy"), registry=registry)
        with pytest.raises(error, match=message):
            result.to_json()

    def test_json_safe_scrubs_and_converts(self):
        doc = {"keep": 1, "nested": [{"ok": (1, 2)}], "set": {2, 1}}
        safe = json_safe(doc)
        assert safe == {"keep": 1, "nested": [{"ok": [1, 2]}], "set": [1, 2]}
        json.dumps(safe)                                  # round-trips

    def test_same_seed_identical_json(self):
        params = {"size_mb": 1.0, "n_initial": 3, "n_spare": 2, "replica": 3,
                  "settle_s": 30.0, "horizon_s": 90.0, "seed": 11}
        first = run_spec(ScenarioSpec("fig4", dict(params)))
        second = run_spec(ScenarioSpec("fig4", dict(params)))
        assert first.to_json() == second.to_json()

    def test_run_spec_isolates_process_state(self):
        """The Nth run in a process equals a fresh-process run.

        Hosts, flows, transfer records, transfer handles and AUIDs are
        numbered from one id space that run_spec rewinds, so a scenario
        whose results depend on them (the elastic ring moves whichever
        keys change owner; BitTorrent seeds its streams from host uids)
        is byte-identical whether it runs first, after other scenarios in
        a serial sweep, or in a pool worker.  The ids burned below
        simulate a prior run's drift.
        """
        from repro.core.data import Data
        from repro.net.flows import Network
        from repro.net.host import Host
        from repro.services.data_transfer import DataTransferService
        from repro.sim import Environment
        from repro.storage.filesystem import FileContent, LocalFileSystem
        from repro.storage.persistence import new_auid
        from repro.transfer.oob import TransferEndpoint
        from repro.transfer.registry import default_registry as protocols

        def burn_ids():
            env = Environment()
            network = Network(env)
            hosts = [network.add_host(Host(f"burn{i}")) for i in range(13)]
            service = DataTransferService(env, hosts[0], network,
                                          protocols(env, network))
            content = FileContent.from_seed("burn.bin", 2)
            source_fs = LocalFileSystem()
            source_fs.write("burn.bin", content)
            # One supervised transfer: a record, a handle and its flows.
            env.process(service.submit(
                Data.from_content(content), "ftp",
                TransferEndpoint(hosts[0], source_fs, "burn.bin"),
                TransferEndpoint(hosts[1], LocalFileSystem(), "burn.bin")))
            env.run()
            assert service.bandwidth_report()["transfers"] == 1
            for _ in range(997):
                new_auid("drift")

        def runs():
            return [
                run_spec(ScenarioSpec("fabric-rebalance", {
                    "n_hosts": 3, "n_data": 8, "run_for_s": 4.0,
                    "split_at": 1.0, "merge_at": 2.5})).to_json(),
                run_spec(ScenarioSpec("blast", {
                    "n_workers": 8,
                    "transfer_protocol": "bittorrent"})).to_json(),
            ]

        first = runs()
        burn_ids()
        assert runs() == first

    def test_different_seed_different_results(self):
        base = {"n_initial": 3, "n_spare": 2, "replica": 3, "size_mb": 1.0,
                "settle_s": 30.0, "horizon_s": 90.0}
        first = run_spec(ScenarioSpec("fig4", dict(base, seed=1)))
        second = run_spec(ScenarioSpec("fig4", dict(base, seed=2)))
        assert first.to_json() != second.to_json()

    def test_sweep_grid_order_and_overrides(self):
        # A grid axis overrides the base parameter of the same name.
        points = execute_sweep("ftp-alone", {"n_nodes": [2, 4]},
                               base_params={"size_mb": 1.0,
                                            "n_nodes": 9}).points
        assert [p.spec.params["n_nodes"] for p in points] == [2, 4]
        assert all(p.spec.params["size_mb"] == 1.0 for p in points)
        assert points[1].run["results"]["completion_s"] \
            > points[0].run["results"]["completion_s"]


# ---------------------------------------------------------------------------
# New scenarios (smoke, small sizes)
# ---------------------------------------------------------------------------

class TestExtraScenarios:
    def test_flash_crowd_completes(self):
        result = run_scenario("flash-crowd", size_mb=2.0, n_initial=2,
                              n_crowd=4, protocol="ftp")
        assert result["crowd_completed"] == 4
        assert result["crowd_completion_s"] > 0
        assert all(row["latency_s"] > 0 for row in result["rows"])

    def test_fig4_weibull_tracks_replicas(self):
        result = run_scenario("fig4-weibull", replica=3, n_workers=6,
                              settle_s=30.0, horizon_s=120.0)
        assert result["samples"]
        assert 0 <= result["min_live_replicas"] <= 3
        assert result["crashes"] > 0
        assert 0.0 <= result["fraction_at_target"] <= 1.0

    def test_catalog_load_ddc_slower(self):
        result = run_scenario("catalog-load", n_nodes=6, pairs_per_node=20,
                              searches_per_node=10)
        assert result["ddc_publishes"] == 6 * 20
        assert result["ddc_searches"] == 6 * 10
        assert result["slowdown_ratio"] > 1.0

    def test_mapreduce_churn_degrades_gracefully(self):
        result = run_scenario("mapreduce-churn")
        assert result["map_tasks"] < result["n_map_slices"]
        assert 0.0 < result["output_fraction"] < 1.0
        assert result["reduce_tasks"] == result["n_reducers"]

    def test_mapreduce_without_churn_is_lossless(self):
        result = run_scenario("mapreduce-churn", crash_mappers=0)
        assert result["output_fraction"] == 1.0
        assert result["map_tasks"] == result["n_map_slices"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCLI:
    def test_list_shows_catalog(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4", "flash-crowd", "mapreduce-churn"):
            assert name in out

    def test_list_group_filter(self, capsys):
        assert cli_main(["list", "--group", "extra"]) == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out and "fig3a" not in out

    def test_describe_shows_parameters(self, capsys):
        assert cli_main(["describe", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "replica" in out and "Figure 4" in out
        assert "python -m repro run fig4" in out

    @pytest.mark.parametrize("argv, golden", [
        (["list"], "repro_list.txt"),
        (["describe", "fig4"], "repro_describe_fig4.txt"),
    ])
    def test_catalog_output_is_pinned(self, argv, golden, capsys):
        """Where a scenario's metadata is declared is not observable."""
        import os
        assert cli_main(argv) == 0
        path = os.path.join(os.path.dirname(__file__), "golden", golden)
        with open(path, encoding="utf-8") as handle:
            assert capsys.readouterr().out == handle.read()

    def test_unknown_scenario_exit_code(self, capsys):
        assert cli_main(["describe", "nope"]) == 2
        assert "known scenarios" in capsys.readouterr().err

    def test_run_parses_set_values(self, tmp_path, capsys):
        out_file = tmp_path / "r.json"
        code = cli_main(["run", "ftp-alone", "--set", "size_mb=2",
                         "--set", "n_nodes=3", "--out", str(out_file)])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["scenario"] == "ftp-alone"
        assert doc["spec"]["params"]["size_mb"] == 2        # JSON-parsed int
        assert doc["spec"]["params"]["n_nodes"] == 3
        assert doc["results"]["completion_s"] > 0

    def test_run_bad_param_exit_code(self, capsys):
        assert cli_main(["run", "fig4", "--set", "bogus=1", "--quiet"]) == 2
        assert "no parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, knob", [
        (scenario, knob)
        for scenario in ("scale-grid", "scale-grid-100k", "scale-grid-300k",
                         "sync-storm")
        for knob in ("scheduler=calendar", "allocator=vector",
                     "placement=batch")
        # sync-storm keeps a real ``allocator`` (incremental | dense)
        if (scenario, knob) != ("sync-storm", "allocator=vector")])
    def test_removed_perf_knobs_fail_loudly(self, scenario, knob, capsys):
        assert cli_main(["run", scenario, "--set", knob, "--quiet"]) == 2
        name = knob.split("=")[0]
        assert (f"scenario {scenario!r} has no parameter {name!r}"
                in capsys.readouterr().err)

    def test_run_seed_override_and_determinism(self, tmp_path, capsys):
        args = ["run", "fig4", "--seed", "11", "--set", "n_initial=3",
                "--set", "n_spare=2", "--set", "replica=3",
                "--set", "settle_s=30.0", "--set", "horizon_s=90.0",
                "--quiet"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["spec"]["params"]["seed"] == 11

    def test_removed_profile_flag_is_an_argparse_error(self, capsys):
        """The cProfile phase split is gone; perfbench's tracer is the judge."""
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "ftp-alone", "--profile", "--quiet"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --profile" in capsys.readouterr().err

    def test_sweep_writes_grid_and_runs(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        code = cli_main(["sweep", "ftp-alone", "--grid", "n_nodes=2,4",
                         "--set", "size_mb=1.0", "--out", str(out_file),
                         "--quiet"])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["scenario"] == "ftp-alone"
        assert doc["grid"] == {"n_nodes": [2, 4]}
        assert len(doc["runs"]) == 2
        assert [run["spec"]["params"]["n_nodes"] for run in doc["runs"]] == [2, 4]

    def test_malformed_set_value_is_a_clean_error(self, capsys):
        assert cli_main(["run", "fig4", "--set", "noequals", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "name=value" in err and "Traceback" not in err

    def test_grid_axis_parsing(self):
        from repro.__main__ import _parse_grid_axis
        assert _parse_grid_axis("n=2,4") == ("n", [2, 4])
        assert _parse_grid_axis("n=[2,4]") == ("n", [2, 4])
        assert _parse_grid_axis("p=ftp,bittorrent") == ("p", ["ftp", "bittorrent"])
        assert _parse_grid_axis('p="x,y"') == ("p", ["x,y"])   # quoted: whole
        assert _parse_grid_axis("n=5") == ("n", [5])
        with pytest.raises(ValueError):
            _parse_grid_axis("noequals")

    def test_duplicate_grid_axis_rejected(self, capsys):
        code = cli_main(["sweep", "ftp-alone", "--grid", "n_nodes=2",
                         "--grid", "n_nodes=4", "--quiet"])
        assert code == 2
        assert "duplicate --grid axis" in capsys.readouterr().err

    def test_sweep_json_list_axis(self, tmp_path):
        out_file = tmp_path / "sweep.json"
        code = cli_main(["sweep", "ftp-alone", "--grid", "n_nodes=[2,4]",
                         "--set", "size_mb=1.0", "--out", str(out_file),
                         "--quiet"])
        assert code == 0
        assert len(json.loads(out_file.read_text())["runs"]) == 2
