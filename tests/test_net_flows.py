"""Unit tests for the flow-level bandwidth-sharing network."""

import pytest

from repro.net.flows import Network, TransferFailed
from repro.net.host import Host


class TestHostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            Host("h", uplink_mbps=0)
        with pytest.raises(ValueError):
            Host("h", cpu_factor=-1)

    def test_compute_time_scales_with_cpu_factor(self):
        fast = Host("fast", cpu_factor=2.0)
        slow = Host("slow", cpu_factor=0.5)
        assert fast.compute_time(100) == pytest.approx(50)
        assert slow.compute_time(100) == pytest.approx(200)
        with pytest.raises(ValueError):
            fast.compute_time(-1)

    def test_failure_and_recovery_listeners(self):
        host = Host("h")
        log = []
        host.on_failure(lambda h: log.append(("down", h.name)))
        host.on_recovery(lambda h: log.append(("up", h.name)))
        host.fail()
        host.fail()      # idempotent
        host.recover()
        host.recover()   # idempotent
        assert log == [("down", "h"), ("up", "h")]
        assert host.online is True

    def test_hosts_hash_by_identity(self):
        a, b = Host("same"), Host("same")
        assert a != b
        assert len({a, b}) == 2


class TestSingleFlow:
    def test_single_flow_rate_limited_by_bottleneck(self, env, simple_network):
        network, server, workers = simple_network
        flow = network.transfer(server, workers[0], 100.0)
        env.run(until=flow.done)
        # 100 MB at 100 MB/s plus 1 ms latency.
        assert flow.end_time == pytest.approx(1.001, rel=1e-3)
        assert flow.transferred_mb == pytest.approx(100.0)
        assert network.completed_flows == 1

    def test_zero_size_transfer_is_latency_only(self, env, simple_network):
        network, server, workers = simple_network
        flow = network.transfer(server, workers[0], 0.0)
        env.run(until=flow.done)
        assert flow.end_time == pytest.approx(0.001)

    def test_transfer_to_unregistered_host_rejected(self, env, simple_network):
        network, server, _ = simple_network
        stranger = Host("stranger")
        with pytest.raises(KeyError):
            network.transfer(server, stranger, 10)

    def test_duplicate_host_name_rejected(self, env, simple_network):
        network, _, _ = simple_network
        with pytest.raises(ValueError):
            network.add_host(Host("server"))

    def test_mean_rate(self, env, simple_network):
        network, server, workers = simple_network
        flow = network.transfer(server, workers[0], 50.0)
        env.run(until=flow.done)
        assert flow.mean_rate_mbps == pytest.approx(50.0 / flow.duration)


class TestSharing:
    def test_server_uplink_shared_fairly(self, env, simple_network):
        network, server, workers = simple_network
        flows = [network.transfer(server, w, 100.0) for w in workers]
        env.run(until=env.all_of([f.done for f in flows]))
        # Three flows share the server's 100 MB/s: ~3 s each.
        for flow in flows:
            assert flow.end_time == pytest.approx(3.001, rel=1e-2)

    def test_staggered_flows_speed_up_after_completion(self, env, simple_network):
        network, server, workers = simple_network
        first = network.transfer(server, workers[0], 100.0)

        def add_second():
            yield env.timeout(0.501)
            return network.transfer(server, workers[1], 100.0)

        handle = env.process(add_second())
        env.run(until=first.done)
        second = handle.value
        env.run(until=second.done)
        # First flow: 0.5 s alone (50 MB) then shares -> finishes around 1.5 s.
        assert first.end_time == pytest.approx(1.5, rel=5e-2)
        # Second flow gets full bandwidth after the first finishes.
        assert second.end_time < 2.6

    def test_distinct_paths_do_not_interfere(self, env):
        network = Network(env, default_latency_s=0.0)
        a = network.add_host(Host("a", uplink_mbps=10, downlink_mbps=10))
        b = network.add_host(Host("b", uplink_mbps=10, downlink_mbps=10))
        c = network.add_host(Host("c", uplink_mbps=10, downlink_mbps=10))
        d = network.add_host(Host("d", uplink_mbps=10, downlink_mbps=10))
        f1 = network.transfer(a, b, 10)
        f2 = network.transfer(c, d, 10)
        env.run(until=env.all_of([f1.done, f2.done]))
        assert f1.end_time == pytest.approx(1.0, rel=1e-3)
        assert f2.end_time == pytest.approx(1.0, rel=1e-3)

    def test_rate_cap_limits_single_flow(self, env, simple_network):
        network, server, workers = simple_network
        flow = network.transfer(server, workers[0], 50.0, rate_cap_mbps=10.0)
        env.run(until=flow.done)
        assert flow.end_time == pytest.approx(5.001, rel=1e-3)

    def test_background_load_reduces_capacity(self, env, simple_network):
        network, server, workers = simple_network
        network.add_background_load(server, "up", 50.0)
        flow = network.transfer(server, workers[0], 100.0)
        env.run(until=flow.done)
        assert flow.end_time == pytest.approx(2.001, rel=1e-2)
        network.remove_background_load(server, "up", 50.0)
        flow2 = network.transfer(server, workers[1], 100.0)
        env.run(until=flow2.done)
        assert flow2.duration == pytest.approx(1.0, rel=1e-2)

    @pytest.mark.parametrize("method", ["add_background_load",
                                        "remove_background_load"])
    def test_background_load_rejects_unknown_direction(
            self, env, simple_network, method):
        """A typo must not silently release the *downlink* reservation."""
        network, server, _workers = simple_network
        network.add_background_load(server, "down", 50.0)
        with pytest.raises(ValueError, match="'up' or 'down'"):
            getattr(network, method)(server, "upload", 50.0)
        assert network._background[("host-down", server.uid)] == 50.0

    def test_cluster_gateway_caps_intercluster_traffic(self, env):
        network = Network(env, default_latency_s=0.0, wan_latency_s=0.0)
        src = network.add_host(Host("src", cluster="A",
                                    uplink_mbps=1000, downlink_mbps=1000))
        dsts = [network.add_host(Host(f"dst{i}", cluster="B",
                                      uplink_mbps=1000, downlink_mbps=1000))
                for i in range(4)]
        network.set_cluster_gateway("B", capacity_mbps=100)
        flows = [network.transfer(src, d, 100) for d in dsts]
        env.run(until=env.all_of([f.done for f in flows]))
        # 400 MB total through a 100 MB/s gateway -> 4 s.
        assert max(f.end_time for f in flows) == pytest.approx(4.0, rel=2e-2)

    def test_gateway_validation(self, env):
        network = Network(env)
        with pytest.raises(ValueError):
            network.set_cluster_gateway("x", capacity_mbps=0)


class TestFailures:
    def test_host_failure_aborts_flows(self, env, simple_network):
        network, server, workers = simple_network
        flow = network.transfer(server, workers[0], 1000.0)

        def crash():
            yield env.timeout(1.0)
            workers[0].fail()

        env.process(crash())

        def waiter():
            try:
                yield flow.done
            except TransferFailed as exc:
                return str(exc)

        p = env.process(waiter())
        env.run(until=p)
        assert "failed" in p.value
        assert flow.aborted
        assert network.failed_flows == 1

    def test_transfer_to_offline_host_fails_immediately(self, env, simple_network):
        network, server, workers = simple_network
        workers[0].fail()
        flow = network.transfer(server, workers[0], 10.0)
        assert flow.done.triggered
        assert flow.done.ok is False

    def test_abort_api(self, env, simple_network):
        network, server, workers = simple_network
        flow = network.transfer(server, workers[0], 1000.0)

        def do_abort():
            yield env.timeout(0.5)
            network.abort(flow, "operator cancelled")

        env.process(do_abort())
        env.run(until=2)
        assert flow.aborted
        assert not [f for f in network.active_flows]

    def test_other_flows_speed_up_after_failure(self, env, simple_network):
        network, server, workers = simple_network
        victim = network.transfer(server, workers[0], 1000.0)
        survivor = network.transfer(server, workers[1], 100.0)

        def crash():
            yield env.timeout(0.5)
            workers[0].fail()

        env.process(crash())
        env.run(until=survivor.done)
        # Survivor shared 100 MB/s for 0.5 s (25 MB done), then got it all.
        assert survivor.end_time == pytest.approx(1.25, rel=5e-2)
        assert victim.aborted

    def test_latency_between(self, env):
        network = Network(env, default_latency_s=0.001, wan_latency_s=0.05)
        a = network.add_host(Host("a", cluster="one"))
        b = network.add_host(Host("b", cluster="one"))
        c = network.add_host(Host("c", cluster="two"))
        assert network.latency_between(a, a) == 0.0
        assert network.latency_between(a, b) == 0.001
        assert network.latency_between(a, c) == 0.05


class TestCoalescing:
    def test_same_time_arrivals_settle_once(self, env):
        """A burst of simultaneous transfers triggers one allocation pass,
        not one global recompute per flow."""
        network = Network(env, default_latency_s=0.001)
        server = network.add_host(Host("server", uplink_mbps=100,
                                       downlink_mbps=100))
        workers = [network.add_host(Host(f"w{i}", uplink_mbps=10,
                                         downlink_mbps=10))
                   for i in range(50)]
        flows = [network.transfer(server, w, 1.0) for w in workers]
        env.run(until=env.all_of([f.done for f in flows]))
        assert network.completed_flows == 50
        assert network.recompute_requests >= 50
        # One pass for the arrival burst, one for the completion burst.
        assert network.allocation_passes <= 3

    def test_gateway_added_mid_flight_applies_to_running_flows(self, env):
        """Constraint membership is rebuilt when the topology changes."""
        network = Network(env, default_latency_s=0.0, wan_latency_s=0.0)
        src = network.add_host(Host("src", cluster="A",
                                    uplink_mbps=1000, downlink_mbps=1000))
        dst = network.add_host(Host("dst", cluster="B",
                                    uplink_mbps=1000, downlink_mbps=1000))
        flow = network.transfer(src, dst, 100)

        def clamp():
            yield env.timeout(0.05)   # flow running at 1000 MB/s: 50 MB done
            network.set_cluster_gateway("B", capacity_mbps=50)

        env.process(clamp())
        env.run(until=flow.done)
        # Remaining 50 MB at the 50 MB/s gateway: 0.05 + 1.0 seconds.
        assert flow.end_time == pytest.approx(1.05, rel=1e-2)

    def test_completion_timer_is_cancelled_not_stale(self, env, simple_network):
        network, server, workers = simple_network
        flow1 = network.transfer(server, workers[0], 100.0)

        def add_more():
            yield env.timeout(0.2)
            return network.transfer(server, workers[1], 10.0)

        handle = env.process(add_more())
        env.run(until=flow1.done)
        assert handle.value.finished
        # The superseded wake-up was cancelled, not processed as a no-op.
        assert network.completed_flows == 2

    def test_host_link_speed_change_applies_next_pass(self, env):
        """Link capacities are read live at allocation time, matching the
        dense reference allocator's per-pass rebuild."""
        network = Network(env, default_latency_s=0.0)
        a = network.add_host(Host("a", uplink_mbps=100, downlink_mbps=100))
        b = network.add_host(Host("b", uplink_mbps=100, downlink_mbps=100))
        flow = network.transfer(a, b, 100)

        def degrade():
            yield env.timeout(0.5)        # 50 MB done at 100 MB/s
            a.uplink_mbps = 10.0
            network.add_background_load(a, "up", 0.0)   # nudge a recompute

        env.process(degrade())
        env.run(until=flow.done)
        # Remaining 50 MB at 10 MB/s: 0.5 + 5.0 seconds.
        assert flow.end_time == pytest.approx(5.5, rel=1e-2)
