"""Tests for the experiment harness and reporting helpers (small scales)."""

import os
import subprocess
import sys

import pytest

from repro.bench.fault import run_fig4
from repro.bench.micro import run_table2_cell, run_table3, table1_testbed
from repro.bench.reporting import (
    ShapeCheckFailure,
    format_table,
    geometric_mean,
    shape_check,
)
from repro.bench.transfer import run_distribution, run_fig3bc, run_ftp_alone


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"name": "a", "value": 1.234}, {"name": "bb", "value": 10.0}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.23" in text and "10.00" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0, 5]) == pytest.approx(5.0)

    def test_shape_check_pass_and_fail(self):
        checks = shape_check("unit")
        checks.is_true("ok", True)
        checks.ratio_at_least("big enough", 3.0, 2.0)
        checks.ratio_at_most("small enough", 0.5, 1.0)
        checks.within("in range", 5.0, 0.0, 10.0)
        checks.verify()

        failing = shape_check("unit")
        failing.is_true("nope", False)
        with pytest.raises(ShapeCheckFailure, match="nope"):
            failing.verify()


class TestSizeTier:
    def test_unknown_repro_sizes_fails_the_benchmark_session(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, REPRO_SIZES="huge",
                   PYTHONPATH=os.path.join(repo, "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q",
             "-p", "no:cacheprovider", "benchmarks/test_table1_testbed.py"],
            cwd=repo, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        message = done.stdout + done.stderr
        assert "REPRO_SIZES='huge'" in message
        assert "'quick' or 'paper'" in message


class TestMicroHarness:
    def test_table1_matches_paper_rows(self):
        rows = table1_testbed()
        assert len(rows) == 4
        by_cluster = {r["cluster"]: r for r in rows}
        assert by_cluster["gdx"]["cpus"] == 312
        assert by_cluster["grelon"]["cpu_type"].startswith("Intel Xeon")
        assert by_cluster["sagittaire"]["location"] == "Lyon"

    def test_table2_cell_orderings(self):
        kwargs = dict(n_creations=300)
        hsql_pooled = run_table2_cell("hsqldb", True, "local", **kwargs)
        hsql_plain = run_table2_cell("hsqldb", False, "local", **kwargs)
        mysql_plain = run_table2_cell("mysql", False, "local", **kwargs)
        remote = run_table2_cell("hsqldb", True, "rmi remote", **kwargs)
        assert hsql_pooled > hsql_plain > mysql_plain
        assert hsql_pooled > remote > 1.0          # >1k creations/sec remote
        assert 2.0 < hsql_pooled < 8.0             # thousands of dc/sec band

    def test_table2_cell_validation(self):
        with pytest.raises(ValueError):
            run_table2_cell(engine="oracle")
        with pytest.raises(ValueError):
            run_table2_cell(channel="carrier pigeon")
        with pytest.raises(ValueError):
            run_table2_cell(n_creations=0)

    def test_table3_ddc_slower_than_dc(self):
        result = run_table3(n_nodes=10, pairs_per_node=30)
        assert result["ddc_total_s"] > result["dc_total_s"]
        assert result["slowdown_ratio"] > 3.0
        assert result["total_pairs"] == 300


class TestTransferHarness:
    def test_ftp_alone_scales_linearly_with_nodes(self):
        small = run_ftp_alone(20, 5)
        big = run_ftp_alone(20, 20)
        assert big["completion_s"] > 3.0 * small["completion_s"]

    def test_ftp_alone_validation(self):
        with pytest.raises(ValueError):
            run_ftp_alone(0, 5)

    def test_bitdew_distribution_has_positive_overhead(self):
        baseline = run_ftp_alone(20, 5)
        bitdew = run_distribution("ftp", 20, 5)
        assert bitdew["completed_nodes"] == 5
        assert bitdew["completion_s"] >= baseline["completion_s"]
        assert bitdew["monitor_messages"] > 0

    def test_bittorrent_beats_ftp_at_scale(self):
        ftp = run_distribution("ftp", 100, 30)
        bt = run_distribution("bittorrent", 100, 30)
        assert bt["completion_s"] < ftp["completion_s"]

    def test_scheduler_driven_distribution(self):
        result = run_distribution("ftp", 10, 3, use_scheduler=True,
                                  sync_period_s=1.0)
        assert result["completed_nodes"] == 3

    def test_fig3bc_rows_have_expected_shape(self):
        rows = run_fig3bc(sizes_mb=(10,), node_counts=(5,))
        assert len(rows) == 1
        row = rows[0]
        assert row["overhead_s"] >= 0
        assert row["bitdew_ftp_s"] >= row["ftp_alone_s"]


class TestFaultHarness:
    def test_fig4_scenario_small(self):
        result = run_fig4(size_mb=2.0, n_initial=3, n_spare=3, replica=3,
                          crash_interval_s=15.0, settle_s=40.0, horizon_s=150.0)
        assert result["crashes"] == 3
        assert result["joins"] == 3
        assert result["live_replicas"] == 3
        replacements = result["replacement_rows"]
        assert replacements, "replacement nodes must have received the datum"
        for row in replacements:
            # Wait is dominated by the 3 s failure-detection timeout.
            assert row["wait_s"] >= result["timeout_s"] - 1.0
            assert row["wait_s"] <= result["timeout_s"] + 5.0
            assert row["download_s"] > 0
            assert row["bandwidth_kbps"] > 0

    def test_fig4_rejects_oversized_platform(self):
        with pytest.raises(ValueError):
            run_fig4(n_initial=8, n_spare=8)
