"""Host cohorts and the scale-grid-100k harness.

The cohort-batched scale path only holds if the batching is
*transparent*: one ``compute_schedule_batch`` call per cohort round must
simulate exactly what per-host ``compute_schedule`` calls would.  These
tests pin the cohort bookkeeping itself, that equivalence on a reduced
grid, and that the harness refuses impossible sizes before building.
"""

from types import SimpleNamespace

import pytest

from repro.__main__ import main as cli_main
from repro.bench import scale
from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.experiments import run_scenario
from repro.net.flows import Network
from repro.net.host import Host
from repro.services.data_scheduler import DataSchedulerService
from repro.sim.kernel import Environment
from repro.workloads import (
    HostCohort,
    build_cohorts,
    cohort_heartbeat_process,
    cohort_sync_process,
)

pytest.importorskip("numpy")


def _hosts(n):
    return [Host(f"c{i:03d}", uplink_mbps=50, downlink_mbps=50)
            for i in range(n)]


# ---------------------------------------------------------------------------
# Cohort bookkeeping
# ---------------------------------------------------------------------------

class TestBuildCohorts:
    def test_partitions_with_short_tail(self):
        cohorts = build_cohorts(_hosts(10), 4)
        assert [len(c) for c in cohorts] == [4, 4, 2]
        assert [c.index for c in cohorts] == [0, 1, 2]
        names = [h.name for c in cohorts for h in c.hosts]
        assert names == [f"c{i:03d}" for i in range(10)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_cohorts(_hosts(4), 0)
        with pytest.raises(ValueError):
            HostCohort(0, [])

    def test_fresh_cohort_accounting(self):
        cohort = build_cohorts(_hosts(5), 5)[0]
        assert cohort.total_downloads == 0
        assert cohort.total_bytes_mb == 0.0
        assert cohort.last_completion_s == -1.0
        assert cohort.syncs == 0 and cohort.heartbeats == 0


class TestCohortHeartbeat:
    def test_multiplexes_per_host_timers(self):
        """N hosts at period P arrive as one event every P/N: same number
        of heartbeats, same kernel event density, one generator."""
        env = Environment()
        cohort = build_cohorts(_hosts(4), 4)[0]
        beats = []
        env.process(cohort_heartbeat_process(
            env, cohort, period_s=1.0, duration_s=3.0,
            beat=lambda _c, host_idx: beats.append((env.now, host_idx))))
        env.run()
        assert cohort.heartbeats == 12           # 4 hosts x 3 periods
        assert env.now == pytest.approx(3.0)
        # Round-robin over the cohort, evenly spaced at period/N.
        assert [i for _t, i in beats] == [0, 1, 2, 3] * 3
        times = [t for t, _i in beats]
        assert times == pytest.approx([0.25 * (k + 1) for k in range(12)])

    def test_zero_duration_is_a_no_op(self):
        env = Environment()
        cohort = build_cohorts(_hosts(2), 2)[0]
        env.process(cohort_heartbeat_process(env, cohort, 1.0, 0.0))
        env.run()
        assert cohort.heartbeats == 0


class TestCohortSync:
    def test_downloads_and_accounts_per_host(self):
        env = Environment()
        network = Network(env, default_latency_s=0.0)
        server = network.add_host(Host("server", uplink_mbps=100,
                                       downlink_mbps=100))
        hosts = [network.add_host(h) for h in _hosts(3)]
        cohort = build_cohorts(hosts, 3)[0]
        size_mb_of = {"u1": 5.0}

        def sync(_host_names, cached_per_host):
            return [SimpleNamespace(
                        to_download=[] if "u1" in cached else ["u1"])
                    for cached in cached_per_host]

        def transfer(host, uid):
            return network.transfer(server, host, size_mb_of[uid])

        env.process(cohort_sync_process(env, cohort, sync, transfer,
                                        size_mb_of, rounds=2,
                                        sync_gap_s=0.5))
        env.run()
        assert cohort.syncs == 6                  # 3 hosts x 2 rounds
        assert cohort.total_downloads == 3        # second round: all cached
        assert cohort.total_bytes_mb == pytest.approx(15.0)
        assert all("u1" in cached for cached in cohort.cached)
        assert cohort.last_completion_s > 0.0
        assert network.completed_flows == 3

    def test_stagger_offsets_cohort_start(self):
        env = Environment()
        # A cohort with a non-zero index, to observe the stagger.
        late = build_cohorts(_hosts(4), 2)[1]
        seen = []

        def sync(host_names, _cached_per_host):
            seen.extend((env.now, name) for name in host_names)
            return [SimpleNamespace(to_download=[]) for _ in host_names]

        env.process(cohort_sync_process(env, late, sync, lambda h, u: None,
                                        {}, rounds=1, stagger_s=3.0,
                                        sync_gap_s=0.0))
        env.run()
        assert [t for t, _n in seen] == [3.0, 3.0]   # stagger_s * index 1


# ---------------------------------------------------------------------------
# scale-grid-100k / -300k (reduced)
# ---------------------------------------------------------------------------

_SMALL = dict(n_hosts=1000, n_data=200, cohort_size=250, sync_rounds=1,
              heartbeat_duration_s=5.0)


def _drive_reduced_grid(make_sync):
    """The harness's sync storm (600 hosts, 150 data × replica 4, cohorts
    of 200, two rounds), with the placement call injected."""
    env = Environment()
    network = Network(env, default_latency_s=0.0002)
    server = network.add_host(Host("grid-service", uplink_mbps=800,
                                   downlink_mbps=800, stable=True))
    hosts = [network.add_host(h) for h in _hosts(600)]
    ds = DataSchedulerService(env, max_data_schedule=1)
    attribute = Attribute(name="grid", replica=4, protocol="http")
    size_mb_of = {}
    name_of = {}    # uids are minted per process, names are stable
    for i in range(150):
        data = Data(name=f"grid-{i:05d}", size_mb=0.5)
        ds.schedule(data, attribute)
        size_mb_of[data.uid] = 0.5
        name_of[data.uid] = data.name
    flows = []

    def transfer(host, uid):
        flows.append(network.transfer(server, host, size_mb_of[uid]))
        return flows[-1]

    cohorts = build_cohorts(hosts, 200)
    for cohort in cohorts:
        env.process(cohort_sync_process(
            env, cohort, make_sync(ds), transfer, size_mb_of, rounds=2,
            stagger_s=0.25, sync_gap_s=1.0))
    env.run()
    return {
        "cohorts": [([sorted(name_of[uid] for uid in cached)
                      for cached in c.cached],
                     c.downloads.tolist(), c.bytes_mb.tolist(),
                     c.completion_s.tolist(), c.syncs) for c in cohorts],
        "flow_end_times": [(f.dst.name, f.end_time) for f in flows],
        "ds": (ds.assignments, ds.entries_examined, ds.managed_count,
               [(name_of[uid], sorted(ds.owners_of(uid)))
                for uid in size_mb_of]),
        "sim_time_s": env.now,
    }


class TestScaleGrid100k:
    def test_reduced_grid_invariants(self):
        results = run_scenario("scale-grid-100k", **_SMALL)
        assert results["n_hosts"] == 1000
        assert results["cohorts"] == 4
        # Every datum reached its replica target; each placement is one
        # completed download.
        assert results["placed"] == 200
        assert results["downloaded"] == 200 * results["replica"]
        assert results["completed_flows"] == results["downloaded"]
        assert results["syncs"] >= 1000
        assert results["heartbeats"] == 1000  # 1000 hosts x 5s / 5s period
        assert results["processed_events"] > results["heartbeats"]
        assert results["sim_time_s"] > 0.0

    def test_batched_placement_does_not_change_the_simulation(self):
        """One ``compute_schedule_batch`` call per cohort round simulates
        exactly what N sequential ``compute_schedule`` calls do: same
        cohort arrays, same flow end times, same scheduler counters."""
        batched = _drive_reduced_grid(lambda ds: ds.compute_schedule_batch)
        per_host = _drive_reduced_grid(
            lambda ds: lambda names, caches: [
                ds.compute_schedule(n, c) for n, c in zip(names, caches)])
        assert batched["ds"][0] == 600     # the storm placed something
        assert batched == per_host

    def test_harness_stays_on_the_fast_path(self, monkeypatch):
        """The harness never reaches the general walk: a silent slide onto
        the sequential loop would otherwise show only as a ``storm-100k``
        slowdown.  Two rounds, so hosts also present a cache."""
        def slid(*_args, **_kwargs):
            raise AssertionError("scale harness left the batch fast path")
        monkeypatch.setattr(DataSchedulerService, "compute_schedule", slid)
        results = run_scenario("scale-grid-100k",
                               **{**_SMALL, "sync_rounds": 2})
        assert results["placed"] == 200

    @pytest.mark.parametrize("name, value", [
        ("sync_rounds", "-1"), ("sync_rounds", "0"),
        ("stagger_s", "-1"), ("sync_gap_s", "-1"),
        ("heartbeat_period_s", "-5"), ("heartbeat_period_s", "0"),
        ("heartbeat_duration_s", "-1"), ("cohort_size", "0"),
    ])
    def test_impossible_sizes_fail_before_any_host_is_built(
            self, monkeypatch, capsys, name, value):
        def unbuildable(*_args, **_kwargs):
            raise AssertionError(f"a host was built before {name} was checked")
        monkeypatch.setattr(scale, "Host", unbuildable)
        code = cli_main(["run", "scale-grid-100k", "--quiet",
                         "--set", "n_hosts=2000", "--set", "n_data=500",
                         "--set", f"{name}={value}"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith(f"error: {name} must be ")


class TestScaleGrid300k:
    def test_reduced_grid_reports_its_own_scenario(self):
        results = run_scenario("scale-grid-300k", **_SMALL)
        assert results["scenario"] == "scale-grid-300k"
        assert results["placed"] == 200
        assert results["downloaded"] == 200 * results["replica"]
        assert results["completed_flows"] == results["downloaded"]
