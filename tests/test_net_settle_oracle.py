"""Oracle for the flow network's settle loop.

The allocator oracle (``tests/test_property_based.py``) runs both allocators
through the same ``Network._settle``, so it cannot see a bug in the loop
around them.  ``ReferenceNetwork`` is that loop as it was before it assigned
rates and found the next completion in one pass: finished flows leave the
active list one ``list.remove`` at a time, rates are assigned in one loop,
and ``_reschedule_completion`` scans the flows again for the horizon.  The
same random schedules run on both, per allocator mode, and must agree on
the order ``done`` events fire in, end times, volumes, rates at probe times
and the number of allocation passes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given

from repro.net import allocation
from repro.net.allocation import DenseAllocator
from repro.net.flows import _EPSILON, Network
from repro.net.host import Host
from repro.sim.kernel import Environment
from tests.conftest import count_calls
from tests.test_property_based import (
    _network,
    _replay_schedule,
    common_settings,
    flow_op_strategy,
    host_spec_strategy,
)

MODES = [("incremental", True), ("dense", False)]


class ReferenceNetwork(Network):
    """``Network`` with the replaced settle loop."""

    def _settle(self, _evt=None):
        """One allocation pass: advance, complete, re-allocate, re-arm timer."""
        self._settle_pending = False
        # Bring every flow's remaining volume up to date before re-allocating
        # (idempotent: _advance() is a no-op when already at the current time).
        self._advance()
        # Complete flows that have (numerically) finished.
        finished = [f for f in self._active if f.remaining_mb <= 1e-9]
        for flow in finished:
            self._active.remove(flow)
            self._allocator.flow_removed(flow)
            flow.remaining_mb = 0.0
            flow.end_time = self.env.now
            self.completed_flows += 1
            self.total_mb_delivered += flow.size_mb
            flow.done.succeed(flow)

        self.allocation_passes += 1
        rates = self._allocator.allocate(self._active, self._background)
        for flow in self._active:
            flow.rate_mbps = rates.get(flow.fid, 0.0)
        self._reschedule_completion()

    def _reschedule_completion(self):
        """Point the (single, cancellable) wake-up timer at the next completion."""
        if self._completion_timer is not None:
            self._completion_timer.cancel()
            self._completion_timer = None
        if not self._active:
            return
        horizon = math.inf
        for flow in self._active:
            if flow.rate_mbps > _EPSILON:
                horizon = min(horizon, flow.remaining_mb / flow.rate_mbps)
        if not math.isfinite(horizon):
            # All active flows are starved (zero capacity); nothing to schedule —
            # a topology/background change will trigger a new recompute.
            return
        self._completion_timer = self.env.call_later(max(horizon, 0.0),
                                                     self._on_completion_timer)


@pytest.mark.parametrize("mode", MODES, ids=["incremental", "dense"])
@common_settings
@given(host_specs=host_spec_strategy, ops=flow_op_strategy)
def test_settle_matches_the_reference(mode, host_specs, ops):
    probe_times = [0.5, 1.5, 3.0, 6.0]
    *observed, network = _replay_schedule(_network(*mode), host_specs, ops,
                                          probe_times)
    *expected, reference = _replay_schedule(
        _network(*mode, network_class=ReferenceNetwork), host_specs, ops,
        probe_times)
    assert observed[0] == expected[0]     # outcome, end time, volume
    assert observed[1] == expected[1]     # allocated rates at probe times
    assert observed[2] == expected[2]     # network-level statistics
    assert observed[3] == expected[3]     # the order ``done`` events fired in
    assert (network.allocation_passes, network.recompute_requests) == \
        (reference.allocation_passes, reference.recompute_requests)


@pytest.mark.parametrize("network_class", [Network, ReferenceNetwork])
def test_flows_finishing_at_one_instant_fire_in_activation_order(network_class):
    """Three flows end at t = 2.25 s.  The first one created crosses the WAN
    (0.5 s latency against 0.25 s), so it activates last, and it fires last:
    activation order, not creation (fid) order."""
    env = Environment()
    network = network_class(env, default_latency_s=0.25, wan_latency_s=0.5)
    server = network.add_host(Host("server", cluster="a", uplink_mbps=1000,
                                   downlink_mbps=1000))
    near = [network.add_host(Host(f"near{i}", cluster="a", uplink_mbps=4,
                                  downlink_mbps=4)) for i in range(2)]
    far = network.add_host(Host("far", cluster="b", uplink_mbps=4,
                                downlink_mbps=4))
    flows = [network.transfer(server, far, 7.0),       # 0.5 + 7 / 4
             network.transfer(server, near[0], 8.0),   # 0.25 + 8 / 4
             network.transfer(server, near[1], 8.0)]
    fired = []
    for flow in flows:
        flow.done.add_callback(lambda evt: fired.append(evt.value.dst.name))
    env.run()
    assert [flow.end_time for flow in flows] == [2.25, 2.25, 2.25]
    assert fired == ["near0", "near1", "far"]
    assert network.completed_flows == 3


def test_one_pass_over_a_star_enters_no_other_allocation_code():
    """A count, not a timing: one ``allocate`` over a 200-worker star with
    one capped flow enters no code object of ``allocation.py`` but its own
    (the pass that read capacities through ``_live_capacity`` and fixed
    members through a generator entered 405)."""
    env = Environment()
    network = Network(env, default_latency_s=0.001)
    server = network.add_host(Host("server", uplink_mbps=100,
                                   downlink_mbps=100))
    flows = []
    for i in range(200):
        worker = network.add_host(Host(f"w{i}", uplink_mbps=100,
                                       downlink_mbps=100))
        flows.append(network.transfer(server, worker, 10.0,
                                      rate_cap_mbps=0.1 if i == 7 else None))
    env.run(until=0.001)
    active = network.active_flows
    assert len(active) == 200
    rates, entered = count_calls(
        lambda: network._allocator.allocate(active, {}),
        lambda code: code.co_filename == allocation.__file__)
    assert entered == 1
    assert rates == DenseAllocator().allocate(active, {})
    assert rates[flows[7].fid] == 0.1
    assert rates[flows[0].fid] == pytest.approx((100 - 0.1) / 199)
