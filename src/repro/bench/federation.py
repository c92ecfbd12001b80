"""Federation benchmarks: cross-domain flash crowd, partition healing,
sovereignty-constrained placement.

Three scenarios over :mod:`repro.federation` — multiple sovereign BitDew
domains peered across shared-capacity WAN links:

* :func:`run_federation_flash_crowd` — every domain's workers want one
  hot datum published in a single home domain, arriving as a
  golden-ratio-staggered flash crowd.  With federation on, scheduled
  replication lands **one** WAN copy per peer domain and the crowd is
  then served from each domain's local repository over the LAN; the
  baseline (federation off) forces every remote worker through the home
  gateway individually, serialising on the WAN pipes.  ``throughput_x``
  is the makespan ratio — the federated BENCH point.

* :func:`run_federation_partition_heal` — the WAN link is severed in the
  middle of a scheduled replication run and healed later.  The replicator
  keeps replanning; idempotent imports (offer → ``"have"``) make the
  catch-up exactly-once.  Reports the failure/catch-up timeline plus the
  zero-lost / zero-duplicated / zero-leaked verdicts.

* :func:`run_federation_sovereignty` — mixed ``public``/``unlisted``/
  ``private`` data under an ``allowlist`` trust policy.  Proves placement
  follows policy: public data replicates to admitted peers only,
  unlisted data is fetchable by reference but never listed or exported,
  private data never leaves home.

All three run in virtual time only — their ``run --out`` JSON is
byte-identical across invocations (the CI ``federation-smoke`` job
asserts it for the flash crowd).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.attributes import Attribute
from repro.experiments.registry import scenario
from repro.federation.deployment import DomainSpec, Federation
from repro.net.rpc import RpcError
from repro.storage.filesystem import FileContent
from repro.workloads.generator import flash_crowd_offsets

__all__ = [
    "run_federation_flash_crowd",
    "run_federation_partition_heal",
    "run_federation_sovereignty",
]


def _domain_names(n_domains: int) -> List[str]:
    return [f"dom{chr(ord('a') + i)}" for i in range(n_domains)]


def _build_federation(n_domains: int, workers_per_domain: int,
                      wan_latency_s: float, wan_bandwidth_mbps: float,
                      seed: int) -> Federation:
    specs = [
        DomainSpec(name, n_workers=workers_per_domain,
                   # The crowd is driven explicitly; park the periodic loops.
                   sync_period_s=3600.0, heartbeat_period_s=3600.0,
                   seed=seed + index)
        for index, name in enumerate(_domain_names(n_domains))
    ]
    federation = Federation(specs, wan_latency_s=wan_latency_s,
                            wan_bandwidth_mbps=wan_bandwidth_mbps)
    federation.peer_all()
    return federation


# ---------------------------------------------------------------------------
# federation-flash-crowd
# ---------------------------------------------------------------------------

def _crowd_once(federation: Federation, size_mb: float,
                arrival_spread_s: float, retry_s: float,
                federated: bool) -> Dict[str, object]:
    """Publish one hot datum in the first domain, unleash the crowd."""
    env = federation.env
    names = federation.domain_names()
    home_name = names[0]
    home = federation.domain(home_name)
    content = FileContent.from_seed("hot-datum", size_mb)
    attribute = Attribute(name="hot", replica=-1, protocol="http",
                          visibility="public")
    data = home.publish(content, attribute)

    agents = []
    for name in names:
        domain = federation.domain(name)
        for agent in domain.runtime.attach_all(auto_sync=False):
            agents.append((name, agent))
    offsets = flash_crowd_offsets(len(agents), arrival_spread_s)
    start = env.now
    done_at: Dict[str, float] = {}

    def local_worker(agent, offset: float):
        """Pull through the local domain's scheduler until the bytes land."""
        yield env.timeout(offset)
        while not agent.has_content(data.uid):
            yield from agent.sync_once()
            if agent.has_content(data.uid):
                break
            yield env.timeout(retry_s)
        done_at[agent.host.name] = env.now - start

    def wan_worker(domain, agent, offset: float):
        """No federation: fetch through the home gateway over the WAN."""
        yield env.timeout(offset)
        reply = None
        while reply is None:
            try:
                reply = yield from domain.gateway.fetch_remote(
                    home_name, data.uid, size_mb=size_mb)
            except RpcError:
                yield env.timeout(retry_s)
        done_at[agent.host.name] = env.now - start

    if federated:
        replicator = home.start_replicator(period_s=retry_s)
        env.process(replicator.run_until_drained())
    procs = []
    for (name, agent), offset in zip(agents, offsets):
        if federated or name == home_name:
            procs.append(env.process(local_worker(agent, offset)))
        else:
            procs.append(env.process(
                wan_worker(federation.domain(name), agent, offset)))
    env.run(env.all_of(procs))

    wan_kb = sum(link.kb_transferred for link in federation.links.values())
    makespan = max(done_at.values()) if done_at else 0.0
    out: Dict[str, object] = {
        "makespan_s": makespan,
        "completed_workers": len(done_at),
        "wan_kb": wan_kb,
        "leaks": len(federation.private_leaks()),
    }
    if federated:
        out["replication"] = home.replicator.stats()
    gateways = {}
    for name in names:
        gateways[name] = federation.domain(name).gateway.stats()
    out["gateways"] = gateways
    return out


@scenario(
    "federation-flash-crowd",
    title="Cross-domain flash crowd: WAN replication vs per-worker fetches",
    paper_ref="beyond the paper (multi-cluster deployments, §5; BENCH trajectory)",
    group="scale", tags=("bench", "federation"))
def run_federation_flash_crowd(
    n_domains: int = 3,
    workers_per_domain: int = 10,
    size_mb: float = 5.0,
    wan_latency_s: float = 0.08,
    wan_bandwidth_mbps: float = 8.0,
    arrival_spread_s: float = 0.5,
    retry_s: float = 0.25,
    seed: int = 11,
) -> Dict[str, object]:
    """Cross-domain flash crowd, federation on vs single-domain baseline."""
    if n_domains < 2:
        raise ValueError("the flash crowd needs at least two domains")
    federated = _crowd_once(
        _build_federation(n_domains, workers_per_domain, wan_latency_s,
                          wan_bandwidth_mbps, seed),
        size_mb, arrival_spread_s, retry_s, federated=True)
    baseline = _crowd_once(
        _build_federation(n_domains, workers_per_domain, wan_latency_s,
                          wan_bandwidth_mbps, seed),
        size_mb, arrival_spread_s, retry_s, federated=False)
    fed_makespan = federated["makespan_s"]
    throughput_x = (baseline["makespan_s"] / fed_makespan
                    if fed_makespan > 0 else None)
    return {
        "n_domains": n_domains,
        "workers_per_domain": workers_per_domain,
        "n_workers": n_domains * workers_per_domain,
        "size_mb": size_mb,
        "wan_latency_s": wan_latency_s,
        "wan_bandwidth_mbps": wan_bandwidth_mbps,
        "federated": federated,
        "baseline": baseline,
        "throughput_x": throughput_x,
        "wan_kb_saved": (baseline["wan_kb"] or 0.0) - (federated["wan_kb"]
                                                       or 0.0),
    }


# ---------------------------------------------------------------------------
# federation-partition-heal
# ---------------------------------------------------------------------------

@scenario(
    "federation-partition-heal",
    title="WAN partition mid-replication: exactly-once catch-up after healing",
    paper_ref="beyond the paper (fault tolerance, §3.5)",
    group="scale", tags=("bench", "federation", "churn"))
def run_federation_partition_heal(
    n_data: int = 12,
    n_private: int = 3,
    size_mb: float = 1.5,
    replica: int = 2,
    wan_latency_s: float = 0.08,
    wan_bandwidth_mbps: float = 6.0,
    partition_at_s: float = 4.0,
    heal_after_s: float = 4.0,
    period_s: float = 0.5,
    horizon_s: float = 120.0,
    seed: int = 7,
) -> Dict[str, object]:
    """Sever the WAN mid-replication, heal it, measure the exact-once catch-up."""
    federation = Federation(
        [DomainSpec("alpha", n_workers=0, seed=seed),
         DomainSpec("beta", n_workers=0, seed=seed + 1)],
        wan_latency_s=wan_latency_s, wan_bandwidth_mbps=wan_bandwidth_mbps)
    federation.peer("alpha", "beta")
    env = federation.env
    alpha = federation.domain("alpha")
    beta = federation.domain("beta")

    published = []
    for i in range(n_data):
        content = FileContent.from_seed(f"wan-{i:04d}", size_mb)
        published.append(alpha.publish(
            content, Attribute(name=f"wan-{i:04d}", replica=replica,
                               protocol="http", visibility="public")))
    for i in range(n_private):
        content = FileContent.from_seed(f"secret-{i:04d}", size_mb)
        alpha.publish(content, Attribute(name=f"secret-{i:04d}",
                                         replica=replica, protocol="http",
                                         visibility="private"))

    replicator = alpha.start_replicator(period_s=period_s)
    env.process(replicator.run())

    exported_before = {}
    heal_at_s = partition_at_s + heal_after_s

    def fault_script():
        yield env.timeout(partition_at_s)
        exported_before["committed"] = sum(
            len(peers) for peers in replicator.exported.values())
        # Copies can land on beta before the home side commits them; the
        # receiving gateway's counter is the ground truth at this instant.
        exported_before["imported"] = beta.gateway.imports_accepted
        federation.partition("alpha", "beta")
        yield env.timeout(heal_after_s)
        federation.heal("alpha", "beta")

    env.process(fault_script())

    completed_at: Optional[float] = None
    while env.now < horizon_s:
        env.run(until=env.now + period_s)
        holders = sum(len(peers) for peers in replicator.exported.values())
        if holders >= n_data and completed_at is None:
            completed_at = env.now
            break
    replicator.stop()

    link = federation.link("alpha", "beta")
    lost = [data.uid for data in published if not beta.knows(data.uid)]
    stats = replicator.stats()
    return {
        "n_data": n_data,
        "n_private": n_private,
        "replica": replica,
        "partition_at_s": partition_at_s,
        "heal_at_s": heal_at_s,
        "committed_before_partition": exported_before.get("committed", 0),
        "imported_before_partition": exported_before.get("imported", 0),
        "rounds": stats["rounds"],
        "copies_failed": stats["copies_failed"],
        "offers_have": stats["offers_have"],
        "exports_blocked": stats["exports_blocked"],
        "completed_at_s": completed_at,
        "catch_up_s": (None if completed_at is None
                       else completed_at - heal_at_s),
        "lost": len(lost),
        "duplicated": beta.gateway.imports_duplicate,
        "imports_accepted": beta.gateway.imports_accepted,
        "leaks": len(federation.private_leaks()),
        "link_partitions": link.partitions,
        "link_events": [list(event) for event in link.events],
    }


# ---------------------------------------------------------------------------
# federation-sovereignty
# ---------------------------------------------------------------------------

@scenario(
    "federation-sovereignty",
    title="Trust allowlists + visibility: policy-constrained placement",
    paper_ref="beyond the paper (data attributes, §3.2)",
    group="scale", tags=("bench", "federation"))
def run_federation_sovereignty(
    n_public: int = 6,
    n_unlisted: int = 4,
    n_private: int = 4,
    replica: int = 2,
    size_mb: float = 1.0,
    wan_latency_s: float = 0.05,
    wan_bandwidth_mbps: float = 10.0,
    seed: int = 5,
) -> Dict[str, object]:
    """Sovereignty-constrained placement under an allowlist trust policy."""
    federation = Federation(
        [DomainSpec("alpha", n_workers=0, trust="allowlist",
                    trust_peers=("beta",), seed=seed),
         DomainSpec("beta", n_workers=0, seed=seed + 1),
         DomainSpec("gamma", n_workers=0, seed=seed + 2)],
        wan_latency_s=wan_latency_s, wan_bandwidth_mbps=wan_bandwidth_mbps)
    federation.peer_all()
    env = federation.env
    alpha = federation.domain("alpha")
    beta = federation.domain("beta")
    gamma = federation.domain("gamma")

    groups = (("public", n_public), ("unlisted", n_unlisted),
              ("private", n_private))
    by_visibility: Dict[str, list] = {}
    for visibility, count in groups:
        for i in range(count):
            content = FileContent.from_seed(f"{visibility}-{i:04d}", size_mb)
            data = alpha.publish(content, Attribute(
                name=f"{visibility}-{i:04d}", replica=replica,
                protocol="http", visibility=visibility))
            by_visibility.setdefault(visibility, []).append(data)

    replicator = alpha.start_replicator(period_s=0.5)
    env.run(env.process(replicator.run_until_drained()))

    searches: Dict[str, int] = {}
    fetches: Dict[str, bool] = {}

    def probe(caller, key: str):
        rows, _unreachable = yield from caller.gateway.federated_search()
        searches[key] = len(rows)
        if n_unlisted:
            uid = by_visibility["unlisted"][0].uid
            reply = yield from caller.gateway.fetch_remote("alpha", uid,
                                                           size_mb=size_mb)
            fetches[f"{key}_unlisted"] = reply is not None
        if n_private:
            uid = by_visibility["private"][0].uid
            reply = yield from caller.gateway.fetch_remote("alpha", uid,
                                                           size_mb=size_mb)
            fetches[f"{key}_private"] = reply is not None

    env.run(env.process(probe(beta, "beta")))
    env.run(env.process(probe(gamma, "gamma")))

    def holdings(domain) -> Dict[str, int]:
        return {visibility: sum(1 for data in datums
                                if domain.knows(data.uid))
                for visibility, datums in sorted(by_visibility.items())}

    stats = replicator.stats()
    return {
        "n_public": n_public,
        "n_unlisted": n_unlisted,
        "n_private": n_private,
        "beta_search_rows": searches.get("beta", 0),
        "gamma_search_rows": searches.get("gamma", 0),
        "beta_fetch_unlisted_ok": fetches.get("beta_unlisted"),
        "beta_fetch_private_ok": fetches.get("beta_private"),
        "gamma_fetch_unlisted_ok": fetches.get("gamma_unlisted"),
        "gamma_fetch_private_ok": fetches.get("gamma_private"),
        "beta_holdings": holdings(beta),
        "gamma_holdings": holdings(gamma),
        "exports_blocked": stats["exports_blocked"],
        "exported_copies": stats["exported_copies"],
        "alpha_gateway": alpha.gateway.stats(),
        "leaks": len(federation.private_leaks()),
    }
