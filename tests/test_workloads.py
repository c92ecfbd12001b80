"""Unit tests for churn traces."""

import pytest

from repro.net.topology import cluster_topology
from repro.core.runtime import BitDewEnvironment
from repro.sim.rng import RandomStreams
from repro.workloads.traces import (
    ChurnEvent,
    ChurnScript,
    availability_trace,
    crash_replace_script,
)


class TestChurnTraces:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(time_s=1, host_name="h", action="explode")
        with pytest.raises(ValueError):
            ChurnEvent(time_s=-1, host_name="h", action="crash")

    def test_availability_trace_sorted_and_alternating(self):
        events = availability_trace([f"h{i}" for i in range(5)], horizon_s=20000,
                                    mean_availability_s=2000,
                                    mean_unavailability_s=500,
                                    rng=RandomStreams(6))
        times = [e.time_s for e in events]
        assert times == sorted(times)
        per_host = {}
        for event in events:
            per_host.setdefault(event.host_name, []).append(event.action)
        for actions in per_host.values():
            # Hosts start online, so the first transition is always a crash
            # and actions alternate afterwards.
            assert actions[0] == "crash"
            for first, second in zip(actions, actions[1:]):
                assert first != second

    def test_availability_trace_weibull_and_validation(self):
        events = availability_trace(["h0"], horizon_s=10000,
                                    distribution="weibull", rng=RandomStreams(6))
        assert all(e.time_s <= 10000 for e in events)
        with pytest.raises(ValueError):
            availability_trace(["h0"], horizon_s=0)
        with pytest.raises(ValueError):
            availability_trace(["h0"], horizon_s=10, distribution="uniformish")

    def test_crash_replace_script_pairs_events(self):
        events = crash_replace_script(["a", "b", "c"], ["x", "y"], interval_s=20,
                                      start_s=100)
        assert len(events) == 4
        assert events[0].time_s == 100 and events[0].action == "crash"
        assert events[1].time_s == 100 and events[1].action == "join"
        assert events[2].time_s == 120
        with pytest.raises(ValueError):
            crash_replace_script(["a"], ["x"], interval_s=0)

    def test_churn_script_replay(self, env):
        topo = cluster_topology(env, n_workers=3)
        runtime = BitDewEnvironment(topo)
        runtime.attach_all()
        victim = topo.worker_hosts[0]
        spare = topo.worker_hosts[2]
        script = ChurnScript(runtime, [
            ChurnEvent(time_s=5, host_name=victim.name, action="crash"),
            ChurnEvent(time_s=10, host_name=victim.name, action="join"),
        ])
        script.start()
        env.run(until=4)
        assert victim.online
        env.run(until=7)
        assert not victim.online
        env.run(until=12)
        assert victim.online
        assert len(script.applied) == 2

    def test_churn_script_unknown_host(self, env):
        topo = cluster_topology(env, n_workers=1)
        runtime = BitDewEnvironment(topo)
        script = ChurnScript(runtime, [ChurnEvent(1, "ghost", "crash")])
        with pytest.raises(KeyError):
            script.apply(ChurnEvent(1, "ghost", "crash"))
