"""The federation policy layer: trust, visibility, admissibility.

Everything here is **pure** — no simulation kernel, no services — so the
hypothesis property suite can enumerate hundreds of random peer graphs,
trust policies and visibility assignments per second.  The gateway
(:mod:`repro.federation.gateway`) calls *these* functions on the serving
side of every cross-domain RPC; they are the single source of policy
truth, enforced at the gateway router and never client-side.

Model (after the openintent Federation idiom, see SNIPPETS.md Snippet 1):

* a domain's :class:`TrustPolicy` is ``open`` (any peer is admitted) or
  ``allowlist`` (only the named peer domains are admitted);
* every datum carries a ``visibility`` attribute
  (:data:`~repro.core.attributes.VISIBILITIES`):

  ========== ================= ==================== =====================
  visibility federated search   explicit fetch       scheduled replication
  ========== ================= ==================== =====================
  public     listed             allowed              exported
  unlisted   hidden             allowed              pinned to home
  private    hidden             denied               pinned to home
  ========== ================= ==================== =====================

  (each column additionally requires the serving domain's trust policy to
  admit the caller; the home domain itself is always admitted.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from repro.core.attributes import VISIBILITIES

__all__ = [
    "PUBLIC",
    "UNLISTED",
    "PRIVATE",
    "TrustPolicy",
    "may_list",
    "may_fetch",
    "may_export",
]

PUBLIC, UNLISTED, PRIVATE = VISIBILITIES


def _check_visibility(visibility: str) -> None:
    if visibility not in VISIBILITIES:
        raise ValueError(f"unknown visibility {visibility!r} "
                         f"(expected one of {VISIBILITIES})")


@dataclass(frozen=True)
class TrustPolicy:
    """Which peer domains a domain's gateway admits.

    ``open`` admits every peer; ``allowlist`` admits exactly the domains in
    ``peers``.  The home domain is always admitted to its own data — a
    policy governs *cross*-domain access only.
    """

    kind: str = "open"
    peers: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in ("open", "allowlist"):
            raise ValueError(
                f"trust policy kind must be 'open' or 'allowlist' "
                f"(got {self.kind!r})")
        object.__setattr__(self, "peers", frozenset(self.peers))

    @classmethod
    def open_(cls) -> "TrustPolicy":
        return cls(kind="open")

    @classmethod
    def allowlist(cls, peers: Iterable[str]) -> "TrustPolicy":
        return cls(kind="allowlist", peers=frozenset(peers))

    def admits(self, caller_domain: str) -> bool:
        if self.kind == "open":
            return True
        return caller_domain in self.peers


def may_list(visibility: str, caller_domain: str, home_domain: str,
             trust: TrustPolicy) -> bool:
    """May *caller_domain* see this datum in a federated search answered by
    *home_domain*'s gateway?  Only ``public`` data is listed cross-domain."""
    _check_visibility(visibility)
    if caller_domain == home_domain:
        return True
    if not trust.admits(caller_domain):
        return False
    return visibility == PUBLIC


def may_fetch(visibility: str, caller_domain: str, home_domain: str,
              trust: TrustPolicy) -> bool:
    """May *caller_domain* fetch this datum's content by explicit reference?
    ``unlisted`` data is reachable this way; ``private`` never is."""
    _check_visibility(visibility)
    if caller_domain == home_domain:
        return True
    if not trust.admits(caller_domain):
        return False
    return visibility in (PUBLIC, UNLISTED)


def may_export(visibility: str, target_domain: str, home_domain: str,
               home_trust: TrustPolicy, target_trust: TrustPolicy) -> bool:
    """May scheduled replication push this datum from *home_domain* into
    *target_domain*?  Sovereignty: only ``public`` data leaves home, only
    into domains the home's own trust policy admits (the home gateway
    enforces its side when planning exports), and only when the target's
    trust policy admits the home (the *receiving* gateway enforces its
    side on import) — replication needs mutual admission."""
    _check_visibility(visibility)
    if target_domain == home_domain:
        return True
    if not home_trust.admits(target_domain):
        return False
    if not target_trust.admits(home_domain):
        return False
    return visibility == PUBLIC
