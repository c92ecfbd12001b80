"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.attributes import Attribute, parse_attribute
from repro.core.data import Data
from repro.dht.chord import ChordRing, chord_hash
from repro.net.flows import Network
from repro.net.host import Host
from repro.services.data_scheduler import DataSchedulerService
from repro.sim.kernel import Environment
from repro.storage.filesystem import FileContent, LocalFileSystem, StorageFullError

common_settings = settings(max_examples=40, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Attribute grammar round trip
# ---------------------------------------------------------------------------

attribute_strategy = st.builds(
    Attribute,
    name=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True),
    replica=st.one_of(st.just(-1), st.integers(min_value=1, max_value=50)),
    fault_tolerance=st.booleans(),
    absolute_lifetime=st.one_of(st.none(),
                                st.floats(min_value=1.0, max_value=1e6,
                                          allow_nan=False, allow_infinity=False)),
    relative_lifetime=st.one_of(st.none(), st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,8}",
                                                         fullmatch=True)),
    affinity=st.one_of(st.none(), st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,8}",
                                                fullmatch=True)),
    protocol=st.sampled_from(["http", "ftp", "bittorrent"]),
)


@common_settings
@given(attribute_strategy)
def test_attribute_describe_parse_round_trip(attribute):
    """describe() always produces a definition parse_attribute() accepts,
    and parsing preserves every field."""
    parsed = parse_attribute(attribute.describe())
    assert parsed.name == attribute.name
    assert parsed.replica == attribute.replica
    assert parsed.fault_tolerance == attribute.fault_tolerance
    if attribute.absolute_lifetime is None:
        assert parsed.absolute_lifetime is None
    else:
        assert math.isclose(parsed.absolute_lifetime, attribute.absolute_lifetime,
                            rel_tol=1e-9)
    assert parsed.relative_lifetime == attribute.relative_lifetime
    assert parsed.affinity == attribute.affinity
    assert parsed.protocol == attribute.protocol


# ---------------------------------------------------------------------------
# Chord ring invariants
# ---------------------------------------------------------------------------

@common_settings
@given(
    n_nodes=st.integers(min_value=1, max_value=24),
    keys=st.lists(st.text(alphabet="abcdefgh0123456789", min_size=1, max_size=12),
                  min_size=1, max_size=40, unique=True),
)
def test_chord_every_key_is_retrievable_and_replicated(n_nodes, keys):
    ring = ChordRing(replication=2)
    for i in range(n_nodes):
        ring.join(f"node-{i:03d}")
    for key in keys:
        ring.put(key, f"value-of-{key}")
    for key in keys:
        values, result = ring.get(key)
        assert f"value-of-{key}" in values
        # The lookup terminates on the node responsible for the key.
        assert result.node is ring.successor_of(chord_hash(key, ring.bits))
        # The key is present on min(replication, n_nodes) distinct nodes.
        holders = [n for n in ring.nodes if key in n.storage]
        assert len(holders) >= min(2, n_nodes)


@common_settings
@given(
    n_nodes=st.integers(min_value=3, max_value=20),
    fail_index=st.integers(min_value=0, max_value=19),
    keys=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=8),
                  min_size=1, max_size=25, unique=True),
)
def test_chord_single_failure_never_loses_keys(n_nodes, fail_index, keys):
    ring = ChordRing(replication=2)
    for i in range(n_nodes):
        ring.join(f"node-{i:03d}")
    for key in keys:
        ring.put(key, key.upper())
    ring.fail(f"node-{fail_index % n_nodes:03d}")
    for key in keys:
        values, _ = ring.get(key)
        assert key.upper() in values


# ---------------------------------------------------------------------------
# Max-min fairness invariants
# ---------------------------------------------------------------------------

@common_settings
@given(
    uplink=st.floats(min_value=1.0, max_value=1000.0),
    downlinks=st.lists(st.floats(min_value=1.0, max_value=1000.0),
                       min_size=1, max_size=12),
)
def test_maxmin_allocation_respects_capacities(uplink, downlinks):
    env = Environment()
    network = Network(env, default_latency_s=0.0)
    server = network.add_host(Host("server", uplink_mbps=uplink,
                                   downlink_mbps=uplink))
    flows = []
    for i, down in enumerate(downlinks):
        worker = network.add_host(Host(f"w{i}", uplink_mbps=down, downlink_mbps=down))
        flows.append(network.transfer(server, worker, 10_000.0))
    env.run(until=0.001)  # let the latency-delayed flows activate
    active = network.active_flows
    assert len(active) == len(downlinks)
    total = sum(f.rate_mbps for f in active)
    # Feasibility: no constraint is exceeded.
    assert total <= uplink * (1 + 1e-9)
    for flow, down in zip(active, downlinks):
        assert flow.rate_mbps <= down * (1 + 1e-9)
    # Work conservation: either the uplink is saturated or every flow is
    # limited by its own downlink.
    saturated = math.isclose(total, uplink, rel_tol=1e-6)
    all_down_limited = all(
        math.isclose(f.rate_mbps, d, rel_tol=1e-6) or f.rate_mbps < d
        for f, d in zip(active, downlinks))
    assert saturated or all(
        math.isclose(f.rate_mbps, d, rel_tol=1e-6) for f, d in zip(active, downlinks))
    # Max-min fairness: a flow below its downlink capacity gets at least as
    # much as any other flow (no one is starved in favour of a luckier flow).
    unconstrained = [f.rate_mbps for f, d in zip(active, downlinks)
                     if f.rate_mbps < d * (1 - 1e-6)]
    if unconstrained:
        assert max(active, key=lambda f: f.rate_mbps).rate_mbps <= \
            min(unconstrained) * (1 + 1e-6) or saturated


@common_settings
@given(
    sizes=st.lists(st.floats(min_value=0.5, max_value=200.0), min_size=1,
                   max_size=8),
)
def test_all_flows_eventually_deliver_their_volume(sizes):
    env = Environment()
    network = Network(env, default_latency_s=0.0)
    server = network.add_host(Host("server", uplink_mbps=100, downlink_mbps=100))
    flows = []
    for i, size in enumerate(sizes):
        worker = network.add_host(Host(f"w{i}", uplink_mbps=50, downlink_mbps=50))
        flows.append(network.transfer(server, worker, size))
    env.run(until=env.all_of([f.done for f in flows]))
    for flow, size in zip(flows, sizes):
        assert flow.remaining_mb == 0.0
        assert flow.transferred_mb == size
    assert math.isclose(network.total_mb_delivered, sum(sizes), rel_tol=1e-9)


# ---------------------------------------------------------------------------
# Allocator equivalence oracle
# ---------------------------------------------------------------------------

host_spec_strategy = st.lists(
    st.tuples(st.floats(min_value=1.0, max_value=500.0),
              st.floats(min_value=1.0, max_value=500.0)),
    min_size=2, max_size=6)

#: One op: (delay before it, kind, pick a, pick b, amount, optional amount).
#: ``start`` reads a/b as src/dst, the amount as size_mb and the optional one
#: as the flow's ``rate_cap_mbps``; ``gateway`` reads a as the cluster and the
#: amounts as egress/ingress (ingress None = egress); ``load`` / ``speed`` read
#: a as the host, b's parity as the direction and the amount as the rate.
flow_op_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0),
        st.sampled_from(["start", "start", "start", "abort", "fail",
                         "recover", "gateway", "load", "unload", "speed"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.5, max_value=50.0),
        st.one_of(st.none(), st.floats(min_value=0.5, max_value=100.0)),
    ),
    min_size=1, max_size=14)


def _replay_schedule(make_network, host_specs, ops, probe_times):
    """Run one random schedule of arrivals, aborts, host failures and
    recoveries, WAN gateway changes, background loads and link-speed changes
    on the network *make_network(env)* builds.  Host *i* sits in cluster
    ``c{i % 2}``, so every schedule has cross-cluster flows."""
    env = Environment()
    network = make_network(env)
    hosts = [network.add_host(Host(f"h{i}", cluster=f"c{i % 2}",
                                   uplink_mbps=up, downlink_mbps=down))
             for i, (up, down) in enumerate(host_specs)]
    flows = []
    fired = []
    loads = []

    def driver():
        for delay, kind, a, b, amount, extra in ops:
            yield env.timeout(delay)
            host = hosts[a % len(hosts)]
            direction = "up" if b % 2 == 0 else "down"
            if kind == "start":
                dst = hosts[b % len(hosts)]
                if host is not dst and host.online and dst.online:
                    flow = network.transfer(host, dst, amount,
                                            rate_cap_mbps=extra)
                    flow.done.add_callback(
                        lambda _evt, index=len(flows): fired.append(index))
                    flows.append(flow)
            elif kind == "abort":
                if flows:
                    network.abort(flows[a % len(flows)])
            elif kind == "fail":   # never host 0, so some flows can still run
                hosts[1 + a % (len(hosts) - 1)].fail()
            elif kind == "recover":
                hosts[1 + a % (len(hosts) - 1)].recover()
            elif kind == "gateway":
                network.set_cluster_gateway(f"c{a % 2}", amount, extra)
            elif kind == "load":
                network.add_background_load(host, direction, amount)
                loads.append((host, direction, amount))
            elif kind == "unload":
                if loads:
                    network.remove_background_load(*loads.pop(a % len(loads)))
            else:   # speed: a live link change, then a nudge to re-allocate
                if direction == "up":
                    host.uplink_mbps = amount
                else:
                    host.downlink_mbps = amount
                network.add_background_load(host, direction, 0.0)

    env.process(driver())
    rate_probes = []
    for t in probe_times:
        env.run(until=t)
        rate_probes.append(tuple(flow.rate_mbps for flow in flows))
    env.run()
    outcome = [
        (flow.done.ok if flow.done.triggered else None,
         flow.end_time, flow.transferred_mb)
        for flow in flows
    ]
    stats = (network.completed_flows, network.failed_flows,
             network.total_mb_delivered)
    return outcome, rate_probes, stats, fired, network


def _network(allocator, coalesce, network_class=Network):
    return lambda env: network_class(env, default_latency_s=0.001,
                                     allocator=allocator, coalesce=coalesce)


@common_settings
@given(host_specs=host_spec_strategy, ops=flow_op_strategy)
# Two aborts at one instant: the dense allocator re-allocates between them,
# the coalesced one does not, so the second (dead) flow used to read 1.0 on
# one and 0.5 on the other until Network._fail_flow zeroed a dead flow's rate.
@example(host_specs=[(1.0, 1.0), (1.0, 1.0)],
         ops=[(0.0, "start", 0, 1, 1.0, None), (0.0, "start", 0, 1, 1.0, None),
              (1.0, "abort", 0, 0, 1.0, None), (0.0, "abort", 1, 0, 1.0, None)])
# Every capacity source binds in turn on h1 -> h2: its cap (3) under the c0
# gateway's ingress (5; egress 2 holds the two c0 -> c1 flows), then h1's
# uplink under a 38.5 background load, then h2's downlink cut to 1.
@example(host_specs=[(40.0, 40.0), (40.0, 40.0), (40.0, 40.0)],
         ops=[(0.0, "start", 0, 1, 20.0, None), (0.0, "start", 2, 1, 20.0, None),
              (0.0, "start", 1, 2, 20.0, 3.0), (0.0, "gateway", 0, 0, 2.0, 5.0),
              (0.25, "load", 1, 0, 38.5, None), (0.25, "speed", 2, 1, 1.0, None),
              (1.0, "unload", 0, 0, 1.0, None)])
def test_incremental_allocator_matches_dense_oracle(host_specs, ops):
    """Random schedules produce identical rates and completion times on the
    dense (reference) allocator and the coalesced incremental one, whichever
    capacity binds: a link, a per-flow cap, a WAN gateway, a background load
    or a link speed changed mid-run."""
    probe_times = [0.5, 1.5, 3.0, 6.0]
    dense = _replay_schedule(_network("dense", False), host_specs, ops,
                             probe_times)
    incremental = _replay_schedule(_network("incremental", True), host_specs,
                                   ops, probe_times)
    assert incremental[0] == dense[0]     # outcome, end time, volume
    assert incremental[1] == dense[1]     # allocated rates at probe times
    assert incremental[2] == dense[2]     # network-level statistics


# ---------------------------------------------------------------------------
# Scheduler (Algorithm 1) invariants
# ---------------------------------------------------------------------------

@common_settings
@given(
    replicas=st.lists(st.one_of(st.just(-1), st.integers(min_value=1, max_value=6)),
                      min_size=1, max_size=12),
    n_hosts=st.integers(min_value=1, max_value=10),
    max_schedule=st.integers(min_value=1, max_value=8),
)
def test_scheduler_never_exceeds_replica_targets(replicas, n_hosts, max_schedule):
    env = Environment()
    scheduler = DataSchedulerService(env, max_data_schedule=max_schedule)
    datas = []
    for i, replica in enumerate(replicas):
        data = Data(name=f"d{i}")
        scheduler.schedule(data, Attribute(name=f"a{i}", replica=replica))
        datas.append((data, replica))

    caches = {f"h{j}": set() for j in range(n_hosts)}
    # Enough synchronisation rounds for every host to receive everything it is
    # entitled to, even with max_data_schedule = 1.
    for _round in range(len(replicas) + 2):
        for host, cache in caches.items():
            result = scheduler.compute_schedule(host, set(cache))
            assert len(result.to_download) <= max_schedule
            cache.difference_update(result.to_delete)
            cache.update(d.uid for d, _ in result.assigned)

    for data, replica in datas:
        owners = scheduler.owners_of(data.uid)
        assert len(owners) <= n_hosts
        if replica == -1:
            assert len(owners) == n_hosts
        else:
            assert len(owners) <= replica
    # Every owner recorded by the scheduler actually holds the datum.
    for data, _ in datas:
        for owner in scheduler.owners_of(data.uid):
            assert data.uid in caches[owner]


# ---------------------------------------------------------------------------
# Local file system capacity invariant
# ---------------------------------------------------------------------------

@common_settings
@given(
    capacity=st.floats(min_value=1.0, max_value=500.0),
    sizes=st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1,
                   max_size=30),
)
def test_filesystem_never_exceeds_capacity(capacity, sizes):
    fs = LocalFileSystem(capacity_mb=capacity)
    stored = 0
    for i, size in enumerate(sizes):
        try:
            fs.write(f"file-{i}", FileContent.from_seed(f"file-{i}", size))
            stored += 1
        except StorageFullError:
            pass
        assert fs.used_mb <= capacity + 1e-9
    assert len(fs) == stored
    fs.purge()
    assert fs.used_mb == 0.0


#: Sizes and capacities are tenths of a MB: the true ``needed - free`` of any
#: step is then a multiple of 0.1, far from ``write``'s 1e-12 slack, so the
#: running total and the re-sum cannot disagree on a borderline write.
_FS_STEPS = st.lists(
    st.tuples(st.sampled_from(["write"] * 4 + ["delete"] * 2 + ["purge"]),
              st.sampled_from("abcde"),
              st.integers(min_value=0, max_value=40)),  # read by "write" only
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(capacity_tenths=st.integers(min_value=1, max_value=120), steps=_FS_STEPS)
def test_filesystem_running_total_matches_the_re_sum(capacity_tenths, steps):
    """``used_mb`` is a running total; the reference re-sums a plain dict and
    applies ``write``'s capacity rule to that sum."""
    capacity = capacity_tenths / 10
    fs = LocalFileSystem(capacity_mb=capacity)
    reference = {}
    for op, path, tenths in steps:
        if op == "write":
            size = tenths / 10
            needed = size - reference.get(path, 0.0)
            refused = needed > capacity - sum(reference.values()) + 1e-12
            try:
                fs.write(path, FileContent.from_seed(path, size))
                assert not refused, (op, path, size)
                reference[path] = size
            except StorageFullError:
                assert refused, (op, path, size)
        elif op == "delete":
            assert fs.delete(path) == (reference.pop(path, None) is not None)
        else:
            assert fs.purge() == len(reference)
            reference.clear()
        assert fs.list_paths() == sorted(reference)
        assert fs.used_mb == pytest.approx(sum(reference.values()), abs=1e-9)
        if not reference:
            assert fs.used_mb == 0.0
