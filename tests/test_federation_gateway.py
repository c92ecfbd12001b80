"""Unit tests for the federation layer: policy gateways, WAN links,
domain-qualified RPC labels, and the visibility attribute."""

from __future__ import annotations

import pytest

from repro.core.attributes import (Attribute, AttributeError_, VISIBILITIES,
                                   parse_attribute)
from repro.federation.deployment import DomainSpec, Federation
from repro.federation.policy import TrustPolicy
from repro.net.rpc import RpcEndpoint, RpcError
from repro.services.autoscaler import HotspotMonitor
from repro.sim import ids
from repro.storage.filesystem import FileContent


def _two_domains(alpha_trust=("open", ()), beta_trust=("open", ())):
    federation = Federation(
        [DomainSpec("alpha", n_workers=0, trust=alpha_trust[0],
                    trust_peers=alpha_trust[1], seed=1),
         DomainSpec("beta", n_workers=0, trust=beta_trust[0],
                    trust_peers=beta_trust[1], seed=2)],
        wan_latency_s=0.01, wan_bandwidth_mbps=50.0)
    federation.peer("alpha", "beta")
    return federation


def _publish(domain, name, visibility, size_mb=0.1, replica=2):
    content = FileContent.from_seed(name, size_mb)
    return domain.publish(content, Attribute(
        name=name, replica=replica, protocol="http", visibility=visibility))


# ---------------------------------------------------------------------------
# visibility attribute
# ---------------------------------------------------------------------------

def test_visibility_attribute_validated_and_parsed():
    assert Attribute(name="a").visibility == "public"
    for visibility in VISIBILITIES:
        assert Attribute(name="a",
                         visibility=visibility).visibility == visibility
    with pytest.raises(AttributeError_):
        Attribute(name="a", visibility="secret")
    assert parse_attribute(
        "attr a = { visibility = private }").visibility == "private"
    assert parse_attribute(
        "attr a = { vis = UNLISTED }").visibility == "unlisted"
    # Default visibility keeps describe() byte-identical to pre-federation.
    assert "visibility" not in Attribute(name="a").describe()
    assert "visibility=private" in Attribute(
        name="a", visibility="private").describe()


# ---------------------------------------------------------------------------
# domain-qualified RPC labels (the HotspotMonitor aliasing fix)
# ---------------------------------------------------------------------------

def test_endpoint_labels_do_not_alias_across_domains():
    class Impl:
        pass

    class Host:
        name = "h"

    impl, host = Impl(), Host()
    plain = RpcEndpoint(impl, host=host, name="DataCatalog", shard=1)
    alpha = RpcEndpoint(impl, host=host, name="DataCatalog", shard=1,
                        domain="alpha")
    beta = RpcEndpoint(impl, host=host, name="DataCatalog", shard=1,
                       domain="beta")
    # Historical single-domain labels are unchanged...
    assert plain.label() == "DataCatalog[1]"
    # ...and two domains' shard-1 catalogs no longer collapse to one label.
    assert alpha.label() == "DataCatalog[alpha/1]"
    assert beta.label() == "DataCatalog[beta/1]"
    assert len({plain.label(), alpha.label(), beta.label()}) == 3


def test_hotspot_monitor_separates_domains():
    class Channel:
        def __init__(self, calls, latency):
            self.calls_by_label = calls
            self.latency_by_label = latency

    monitor = HotspotMonitor([
        Channel({"DataCatalog[alpha/0]": 5}, {"DataCatalog[alpha/0]": 0.5}),
        Channel({"DataCatalog[beta/0]": 2}, {"DataCatalog[beta/0]": 2.0}),
    ])
    delta = monitor.delta()
    assert set(delta) == {"DataCatalog[alpha/0]", "DataCatalog[beta/0]"}
    assert monitor.hottest(delta) == "DataCatalog[beta/0]"


def test_runtime_endpoints_carry_their_domain():
    # Classic (single-container) domains qualify their service labels...
    federation = _two_domains()
    labels = {}
    for name in ("alpha", "beta"):
        router = federation.domain(name).runtime.router
        labels[name] = {service: endpoint.label()
                        for service, endpoint in router.endpoints.items()}
        assert all(f"[{name}]" in label
                   for label in labels[name].values()), labels[name]
    assert not set(labels["alpha"].values()) & set(labels["beta"].values())

    # ...and so do sharded fabric deployments.
    sharded = Federation(
        [DomainSpec("alpha", n_workers=0, shards=2, service_hosts=2,
                    seed=1),
         DomainSpec("beta", n_workers=0, shards=2, service_hosts=2,
                    seed=2)],
        wan_latency_s=0.01, wan_bandwidth_mbps=50.0)
    fabric_labels = {}
    for name in ("alpha", "beta"):
        fabric = sharded.domain(name).runtime.fabric
        fabric_labels[name] = {
            endpoint.label()
            for shard in range(fabric.shards)
            for endpoint in fabric.shard_endpoints("dc", shard)}
        assert all(f"[{name}/" in label
                   for label in fabric_labels[name]), fabric_labels[name]
    assert not fabric_labels["alpha"] & fabric_labels["beta"]


# ---------------------------------------------------------------------------
# gateway policy enforcement (always on the serving side)
# ---------------------------------------------------------------------------

def test_search_and_fetch_enforced_at_the_serving_gateway():
    federation = _two_domains(alpha_trust=("allowlist", ()))
    alpha = federation.domain("alpha")
    datum = _publish(alpha, "pub", "public")
    # beta is not on alpha's allowlist: the serving gateway denies, no
    # matter what the caller sends.
    assert alpha.gateway.search("beta") == []
    assert alpha.gateway.fetch("beta", datum.uid) is None
    assert alpha.gateway.stats()["searches_denied"] == 1
    assert alpha.gateway.stats()["fetches_denied"] == 1
    # The home domain always sees its own data.
    assert [row["uid"] for row in alpha.gateway.search("alpha")] == [
        datum.uid]


def test_fetch_visibility_matrix():
    federation = _two_domains()
    alpha = federation.domain("alpha")
    public = _publish(alpha, "pub", "public")
    unlisted = _publish(alpha, "unl", "unlisted")
    private = _publish(alpha, "prv", "private")
    assert alpha.gateway.fetch("beta", public.uid) is not None
    assert alpha.gateway.fetch("beta", unlisted.uid) is not None
    assert alpha.gateway.fetch("beta", private.uid) is None
    # Search lists only public.
    assert [row["uid"] for row in alpha.gateway.search("beta")] == [
        public.uid]


def test_offer_rejects_transitive_export():
    federation = _two_domains()
    beta = federation.domain("beta")
    descriptor = {"uid": "x", "name": "x", "size_mb": 0.1,
                  "visibility": "public", "home": "alpha"}
    # gamma claims to push alpha's datum: only the home domain may export.
    assert beta.gateway.offer("gamma", descriptor) == "deny"
    assert beta.gateway.offer("alpha", descriptor) == "accept"


def test_import_is_idempotent():
    federation = _two_domains()
    alpha, beta = federation.domain("alpha"), federation.domain("beta")
    datum = _publish(alpha, "pub", "public")
    descriptor = alpha.descriptor_of(datum.uid)
    attribute = alpha.attribute_of(datum.uid)
    content = alpha.content_of(datum.uid)
    assert beta.gateway.import_datum("alpha", descriptor, attribute,
                                     content) == "accepted"
    assert beta.gateway.import_datum("alpha", descriptor, attribute,
                                     content) == "have"
    copies = sum(1 for row in beta.catalog.all_data_now()
                 if row.uid == datum.uid)
    assert copies == 1
    assert beta.gateway.imports_accepted == 1
    assert beta.gateway.imports_duplicate == 1


def test_federated_search_merges_and_reports_unreachable():
    federation = _two_domains()
    alpha, beta = federation.domain("alpha"), federation.domain("beta")
    mine = _publish(alpha, "mine", "public")
    hidden = _publish(alpha, "hidden", "private")
    theirs = _publish(beta, "theirs", "public")
    env = federation.env

    rows, unreachable = env.run(
        env.process(alpha.gateway.federated_search()))
    assert unreachable == []
    # Home view includes alpha's private datum; the peer contributes its
    # public one.
    assert {row["uid"] for row in rows} == {mine.uid, hidden.uid,
                                            theirs.uid}

    federation.partition("alpha", "beta")
    rows, unreachable = env.run(
        env.process(alpha.gateway.federated_search()))
    assert unreachable == ["beta"]
    assert {row["uid"] for row in rows} == {mine.uid, hidden.uid}


def test_sharded_home_domain_replicates_through_the_scheduler_facade():
    """A domain deployed as a fabric exports like a classic one: the
    replicator plans off, and commits into, the sharded scheduler facade."""
    ids.rewind()        # the uids' shard spread must not depend on test order
    federation = Federation(
        [DomainSpec("alpha", n_workers=0, shards=2, service_hosts=2, seed=1),
         DomainSpec("beta", n_workers=0, shards=2, service_hosts=2, seed=2)],
        wan_latency_s=0.01, wan_bandwidth_mbps=50.0)
    federation.peer("alpha", "beta")
    alpha, beta = federation.domain("alpha"), federation.domain("beta")
    datums = [_publish(alpha, f"pub-{i}", "public") for i in range(6)]
    homes = {alpha.runtime.fabric.ds_ring.shard_for(d.uid) for d in datums}
    assert homes == {0, 1}

    replicator = alpha.start_replicator(period_s=0.5)
    env = federation.env
    assert env.run(env.process(replicator.run_round())) == 6
    for datum in datums:
        assert beta.catalog.get_data_now(datum.uid) is not None
        assert alpha.scheduler.owners_of(datum.uid) == {"wan::beta"}
    assert replicator.plan_round() == []


def test_wan_link_partition_fails_calls_and_heals():
    federation = _two_domains()
    alpha = federation.domain("alpha")
    beta = federation.domain("beta")
    datum = _publish(beta, "remote", "public")
    env = federation.env
    link = federation.link("alpha", "beta")
    assert link.per_kb_s == pytest.approx(1.0 / (50.0 * 1024.0))

    federation.partition("alpha", "beta")
    with pytest.raises(RpcError):
        env.run(env.process(
            alpha.gateway.fetch_remote("beta", datum.uid, size_mb=0.1)))
    assert alpha.gateway.wan_failures == 1

    federation.heal("alpha", "beta")
    reply = env.run(env.process(
        alpha.gateway.fetch_remote("beta", datum.uid, size_mb=0.1)))
    assert reply is not None
    assert reply["descriptor"]["uid"] == datum.uid
    assert link.partitions == 1
    assert [event[0] for event in link.events] == ["sever", "heal"]


def test_trust_policy_validation():
    assert TrustPolicy.open_().admits("anyone")
    allow = TrustPolicy.allowlist(["beta"])
    assert allow.admits("beta") and not allow.admits("gamma")
    with pytest.raises(ValueError):
        TrustPolicy(kind="blocklist")
