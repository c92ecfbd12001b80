"""Scheduled cross-domain replication, sovereignty-aware.

The Data Scheduler already maintains the *demand* signal: per-datum
replica deficits (:meth:`~repro.services.data_scheduler.DataSchedulerService.missing_replicas`
— PR 1's replica-deficit machinery).  The :class:`FederationReplicator`
turns unmet local demand into WAN exports: a datum homed here whose
replica target exceeds what the home domain has placed is offered to peer
domains — **iff** policy allows it to leave home (``public`` visibility,
an admitting peer).  ``unlisted``/``private`` data is *pinned*: deficits
stay local and are reported in ``exports_blocked`` rather than shipped.

Each round walks four phases, announced through ``on_phase`` exactly like
the rebalance coordinator's protocol (so the chaos harness can sever the
WAN at any point of the handshake):

* ``scan``   — local: compute the export plan from the deficit heap;
* ``offer``  — WAN: admission probe per (datum, peer) — the receiving
  gateway applies its trust policy and visibility rules;
* ``copy``   — WAN: bulk transfer + idempotent ``import_datum``;
* ``commit`` — local: record confirmed exports as synthetic ``wan::<peer>``
  owners on the home scheduler, so the deficit machinery sees the demand
  as met and the next scan converges.

A partition in any WAN phase fails those copies with
:class:`~repro.net.rpc.RpcError`; nothing is committed for them, so the
next round replans and the idempotent import (``offer`` → ``"have"``)
guarantees healing never duplicates a datum.

Peer ordering reuses the fabric's consistent-hash ring
(:class:`~repro.services.router.ShardRing`): each datum's uid hashes to a
starting peer, so exports spread deterministically across the federation
instead of hammering the alphabetically-first peer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.federation.policy import PUBLIC
from repro.net.rpc import RpcError
from repro.services.router import ShardRing

__all__ = ["FederationReplicator"]

#: rounds ``run_until_drained`` runs before it gives up
MAX_DRAIN_ROUNDS = 64
#: the protocol phases, in order (the chaos suite parametrises over these)
PHASES = ("scan", "offer", "copy", "commit")


class FederationReplicator:
    """Drives one domain's scheduled exports to its peers."""

    def __init__(self, domain, period_s: float = 1.0,
                 on_phase: Optional[Callable] = None):
        self.domain = domain
        self.gateway = domain.gateway
        self.env = domain.env
        self.period_s = float(period_s)
        self.on_phase = on_phase
        #: uid -> peers confirmed holding an exported copy
        self.exported: Dict[str, Set[str]] = {}
        #: uid -> peers whose gateway denied the offer (policy, not
        #: transport: denials are permanent under static policies, so they
        #: are not replanned — without this, a peer that admits us nothing
        #: would be re-offered every round forever)
        self.denied: Dict[str, Set[str]] = {}
        #: uids whose cross-domain demand policy refused to export (pinned)
        self.blocked_uids: Set[str] = set()
        self.rounds = 0
        self.copies_attempted = 0
        self.copies_completed = 0
        self.copies_failed = 0
        self.offers_denied = 0
        self.offers_have = 0
        self._running = False

    # ------------------------------------------------------------------ planning
    def _peer_order(self, uid: str, peers: List[str]) -> List[str]:
        """Deterministic per-datum peer rotation off the consistent ring."""
        if len(peers) <= 1:
            return list(peers)
        start = ShardRing(len(peers), label="fed").shard_for(uid)
        return peers[start:] + peers[:start]

    def plan_round(self) -> List[Tuple[str, str]]:
        """The (uid, peer) exports this round wants to land.

        Only data *homed* in this domain is considered (imported replicas
        are never re-exported — no transitive leaks), only ``public``
        data may leave, and only peers the home's own trust policy admits
        are targets (the receiving gateway additionally applies *its*
        policy on import); everything else with unmet cross-domain demand
        is recorded as blocked.
        """
        peers = [p for p in self.gateway.peer_names()
                 if self.domain.trust.admits(p)]
        if not peers:
            return []
        plan: List[Tuple[str, str]] = []
        domain = self.domain
        entries = sorted(domain.scheduler.entries(),
                         key=lambda entry: entry.data.uid)
        deficits = domain.scheduler.missing_replicas()
        for entry in entries:
            uid = entry.data.uid
            if domain.home_of(uid) != domain.name:
                continue
            settled = (self.exported.get(uid, set())
                       | self.denied.get(uid, set()))
            candidates = [p for p in self._peer_order(uid, peers)
                          if p not in settled]
            if not candidates:
                continue
            if entry.attribute.replicate_to_all:
                wanted = len(candidates)
            else:
                wanted = min(deficits.get(uid, 0), len(candidates))
            if wanted <= 0:
                continue
            if domain.visibility_of(uid) != PUBLIC:
                self.blocked_uids.add(uid)
                continue
            for peer in candidates[:wanted]:
                plan.append((uid, peer))
        return plan

    # ------------------------------------------------------------------ the round
    def _phase(self, name: str) -> None:
        if self.on_phase is not None:
            self.on_phase(name, self)

    def run_round(self):
        """Generator: one scan/offer/copy/commit round.  Returns the number
        of exports confirmed this round."""
        self.rounds += 1
        self._phase("scan")
        plan = self.plan_round()

        self._phase("offer")
        admitted: List[Tuple[str, str]] = []
        for uid, peer in plan:
            descriptor = self.domain.descriptor_of(uid)
            try:
                verdict = yield from self.gateway.call_peer(
                    peer, "offer", descriptor, payload_kb=0.5)
            except RpcError:
                self.copies_failed += 1
                continue
            if verdict == "accept":
                admitted.append((uid, peer))
            elif verdict == "have":
                # The copy landed in an earlier round whose commit the
                # partition swallowed: confirm it now, don't re-send.
                self.offers_have += 1
                admitted.append((uid, peer))
            else:
                self.offers_denied += 1
                self.denied.setdefault(uid, set()).add(peer)

        self._phase("copy")
        confirmed: List[Tuple[str, str]] = []
        for uid, peer in admitted:
            descriptor = self.domain.descriptor_of(uid)
            attribute = self.domain.attribute_of(uid)
            content = self.domain.content_of(uid)
            self.copies_attempted += 1
            try:
                status = yield from self.gateway.call_peer(
                    peer, "import_datum", descriptor, attribute, content,
                    payload_kb=1.0,
                    bulk_kb=max(0.0, descriptor["size_mb"]) * 1024.0)
            except RpcError:
                self.copies_failed += 1
                continue
            if status in ("accepted", "have"):
                self.copies_completed += 1
                confirmed.append((uid, peer))

        self._phase("commit")
        for uid, peer in confirmed:
            holders = self.exported.setdefault(uid, set())
            if peer not in holders:
                holders.add(peer)
                # The exported copy satisfies one unit of the datum's
                # replica demand: a synthetic WAN owner on the home
                # scheduler is exactly how the deficit machinery hears it.
                self.domain.scheduler.confirm_ownership(f"wan::{peer}", uid)
        return len(confirmed)

    # ------------------------------------------------------------------ driving
    def run(self, for_s: Optional[float] = None):
        """Generator process: periodic rounds (the scheduled replication)."""
        self._running = True
        started = self.env.now
        while self._running and (for_s is None
                                 or self.env.now - started < for_s):
            yield from self.run_round()
            yield self.env.timeout(self.period_s)

    def stop(self) -> None:
        self._running = False

    def run_until_drained(self):
        """Generator: round after round until the plan is empty (all
        exportable demand met) or the round budget runs out.  Returns True
        when drained."""
        for _ in range(MAX_DRAIN_ROUNDS):
            if not self.plan_round():
                return True
            yield from self.run_round()
            yield self.env.timeout(self.period_s)
        return not self.plan_round()

    # ------------------------------------------------------------------ report
    def stats(self) -> dict:
        return {
            "rounds": self.rounds,
            "copies_attempted": self.copies_attempted,
            "copies_completed": self.copies_completed,
            "copies_failed": self.copies_failed,
            "offers_denied": self.offers_denied,
            "offers_have": self.offers_have,
            "exports_blocked": len(self.blocked_uids),
            "exports_denied_pairs": sum(len(p)
                                        for p in self.denied.values()),  # detlint: ignore[DET004] — sum of int lengths is order-insensitive
            "exported_datums": len(self.exported),
            "exported_copies": sum(len(p) for p in self.exported.values()),  # detlint: ignore[DET004] — sum of int lengths is order-insensitive
        }
