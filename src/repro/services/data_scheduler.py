"""Data Scheduler service (DS) — Algorithm 1 of the paper.

The DS owns the *data-driven* scheduling of BitDew: reservoir hosts
periodically synchronise with it, presenting the set of data held in their
local cache (Δk); the DS decides the new cache content (Ψk).  The host then
deletes obsolete data (Δk \\ Ψk), keeps validated data (Δk ∩ Ψk) and
downloads newly assigned data (Ψk \\ Δk).

Scheduling decisions follow the paper's attributes:

* **lifetime** — data whose absolute lifetime expired, or whose relative
  lifetime references a datum no longer managed, leaves every cache;
* **affinity** — a datum with an affinity towards data present in the host's
  cache is always assigned (affinity is stronger than replica);
* **replica** — a datum is assigned while its number of active owners is
  below the requested replica count (``-1`` = every host);
* **fault tolerance** — owners are tracked per datum; when the failure
  detector declares a host dead, the host is removed from the owner lists of
  fault-tolerant data only, which makes the runtime re-schedule them
  elsewhere (non-fault-tolerant replicas simply stay unavailable while the
  host is down, §3.2);
* at most ``max_data_schedule`` new data are assigned per synchronisation.

**Indexing.**  The naive reading of Algorithm 1 scans all of Θ on every
synchronisation and resolves affinity references with a linear search.  This
implementation instead maintains reverse indexes so per-sync work is
proportional to what is actually assignable:

* ``name → uids`` and ``attribute-name → uids`` make reference resolution
  (affinity, relative lifetime) O(1) per lookup;
* ``reference → dependent uids`` maps (affinity and relative-lifetime
  dependents) turn "which data follows the data this host holds?" into a
  set union over the host's cache instead of a scan over Θ;
* a **replica-deficit set** holds exactly the non-affinity data whose owner
  count is below its replica target (or that replicates to all), i.e. the
  data assignable by the replica rule;
* an ``owner → uids`` index makes the failure-detector callback O(data
  owned by the failed host).

``compute_schedule`` walks a candidate heap in Θ-insertion order, so its
decisions — including the one-forward-pass treatment of affinity chains —
are identical to the reference full-scan implementation, kept as the
``ReferenceScheduler`` oracle of ``tests/test_data_scheduler_oracle.py``.

**Lifetime contract.**  Lifetime is resolved lazily, as in Algorithm 1: one
test (:meth:`_lifetime_valid`) per datum of Δk and per candidate, inside the
synchronisation, and nowhere else.  An expired entry is assigned to no host
and deleted from every cache that presents it, but it *stays in Θ* until
:meth:`unschedule` removes it — there is no eager sweep.  Relative lifetime
is therefore non-transitive: in a chain A → B → C (B lives as long as A, C
as long as B), removing A invalidates B, but C stays valid while B is *in
Θ*, valid or not.

Note: line 21 of the paper's pseudo-code reads ``replica < |Ω|``; given the
prose ("schedule new data transfers to hosts if the number of owners is less
than the number of replica") this is a typo for ``|Ω| < replica``, which is
what this implementation does.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.attributes import Attribute, DEFAULT_ATTRIBUTE
from repro.core.data import Data
from repro.sim.kernel import Environment
from repro.services.heartbeat import FailureDetector
from repro.storage.database import Database

__all__ = ["DataSchedulerService", "ScheduledEntry", "SyncResult"]


@dataclass
class ScheduledEntry:
    """One datum under the scheduler's management (an element of Θ)."""

    data: Data
    attribute: Attribute
    scheduled_at: float
    #: active owners Ω(D): hosts believed to hold a live replica
    owners: Set[str] = field(default_factory=set)
    #: Θ-insertion sequence number; preserves the reference scan order
    seq: int = 0

    @property
    def uid(self) -> str:
        return self.data.uid


@dataclass
class SyncResult:
    """What a reservoir host receives from one synchronisation."""

    host_name: str
    #: full new cache content Ψk: (data, attribute) pairs
    assigned: List[Tuple[Data, Attribute]]
    #: uids the host should delete (Δk \\ Ψk)
    to_delete: List[str]
    #: uids the host should download (Ψk \\ Δk)
    to_download: List[str]
    time: float = 0.0


class DataSchedulerService:
    """Interprets data attributes and generates transfer orders (Algorithm 1)."""

    def __init__(
        self,
        env: Environment,
        database: Optional[Database] = None,
        failure_detector: Optional[FailureDetector] = None,
        max_data_schedule: int = 16,
    ):
        self.env = env
        self.database = database
        self.failure_detector = failure_detector
        if self.failure_detector is not None:
            self.failure_detector.on_failure(self._on_host_failure)
        self.max_data_schedule = int(max_data_schedule)
        #: Θ: uid -> entry (insertion-ordered)
        self._entries: Dict[str, ScheduledEntry] = {}
        self._seq = itertools.count()
        # -- reverse indexes over Θ ----------------------------------------
        #: data name -> uids
        self._by_name: Dict[str, Set[str]] = {}
        #: attribute name -> uids
        self._by_attr: Dict[str, Set[str]] = {}
        #: host name -> uids the host owns
        self._owner_index: Dict[str, Set[str]] = {}
        #: non-affinity uids assignable by the replica rule
        self._replica_deficit: Set[str] = set()
        #: the deficit ordered by Θ position: (seq, uid) rows with lazy
        #: deletion, so one sync pops only the candidates it examines
        #: instead of ordering the whole deficit set
        self._deficit_heap: List[Tuple[int, str]] = []
        #: affinity reference -> uids whose attribute.affinity names it
        self._affinity_dependents: Dict[str, Set[str]] = {}
        #: lifetime reference -> uids whose relative_lifetime names it
        self._lifetime_dependents: Dict[str, Set[str]] = {}
        #: managed entries carrying any lifetime attribute; the batched
        #: placement fast path requires this to be zero (see
        #: :meth:`compute_schedule_batch`)
        self._lifetime_count = 0
        #: uids frozen during a shard migration: compute_schedule makes no
        #: *new* assignments of these (existing owners keep their copies)
        self._quiesced: Set[str] = set()
        #: migration dirty-tracking callback (set by the rebalance
        #: coordinator while this shard is a migration source): called with
        #: the uid of every Θ mutation that happens outside the router's
        #: tracked request path — scheduler-internal owner changes from
        #: syncs and failure-detector repairs
        self._mutation_hook = None
        #: statistics
        self.sync_count = 0
        self.assignments = 0
        self.repairs_triggered = 0
        #: Θ-entries examined during step 2 of compute_schedule (the scan the
        #: indexes are meant to shrink; scheduler tests pin this)
        self.entries_examined = 0

    # ------------------------------------------------------------------ indexing
    def _resolve_dependents(self, reference: str) -> None:
        """A provider of *reference* appeared; its dependents resolve again."""
        for dep_uid in self._lifetime_dependents.get(reference, ()):
            # A dependent evicted from the deficit while its reference was
            # dangling becomes assignable again.
            entry = self._entries.get(dep_uid)
            if entry is not None:
                self._update_deficit(entry)

    def _update_deficit(self, entry: ScheduledEntry) -> None:
        attr = entry.attribute
        assignable = (not attr.has_affinity) and (
            attr.replicate_to_all or len(entry.owners) < attr.replica)
        uid = entry.uid
        if assignable:
            if uid not in self._replica_deficit:
                self._replica_deficit.add(uid)
                heapq.heappush(self._deficit_heap, (entry.seq, uid))
        else:
            self._replica_deficit.discard(uid)

    def _attach_attribute(self, entry: ScheduledEntry) -> None:
        """Index the attribute-derived facts of *entry* (call after setting it)."""
        uid = entry.uid
        attr = entry.attribute
        self._by_attr.setdefault(attr.name, set()).add(uid)
        # The new attribute name may satisfy dangling relative lifetimes.
        self._resolve_dependents(attr.name)
        if attr.has_affinity:
            self._affinity_dependents.setdefault(attr.affinity, set()).add(uid)
        if attr.relative_lifetime is not None:
            self._lifetime_dependents.setdefault(
                attr.relative_lifetime, set()).add(uid)
        if attr.absolute_lifetime is not None or attr.relative_lifetime is not None:
            self._lifetime_count += 1
        self._update_deficit(entry)

    def _detach_attribute(self, entry: ScheduledEntry) -> None:
        """Un-index the attribute-derived facts of *entry*."""
        uid = entry.uid
        attr = entry.attribute
        holders = self._by_attr.get(attr.name)
        if holders is not None:
            holders.discard(uid)
            if not holders:
                del self._by_attr[attr.name]
        if attr.has_affinity:
            deps = self._affinity_dependents.get(attr.affinity)
            if deps is not None:
                deps.discard(uid)
                if not deps:
                    del self._affinity_dependents[attr.affinity]
        if attr.relative_lifetime is not None:
            deps = self._lifetime_dependents.get(attr.relative_lifetime)
            if deps is not None:
                deps.discard(uid)
                if not deps:
                    del self._lifetime_dependents[attr.relative_lifetime]
        self._replica_deficit.discard(uid)
        if attr.absolute_lifetime is not None or attr.relative_lifetime is not None:
            self._lifetime_count -= 1

    def _remove_entry(self, uid: str) -> Optional[ScheduledEntry]:
        entry = self._entries.pop(uid, None)
        if entry is None:
            return None
        self._detach_attribute(entry)
        holders = self._by_name.get(entry.data.name)
        if holders is not None:
            holders.discard(uid)
            if not holders:
                del self._by_name[entry.data.name]
        for host in entry.owners:
            owned = self._owner_index.get(host)
            if owned is not None:
                owned.discard(uid)
                if not owned:
                    del self._owner_index[host]
        if self._mutation_hook is not None:
            self._mutation_hook(uid)
        return entry

    def _add_owner(self, entry: ScheduledEntry, host_name: str) -> None:
        if host_name in entry.owners:
            return
        entry.owners.add(host_name)
        self._owner_index.setdefault(host_name, set()).add(entry.uid)
        self._update_deficit(entry)
        if self._mutation_hook is not None:
            self._mutation_hook(entry.uid)

    def _remove_owner(self, entry: ScheduledEntry, host_name: str) -> None:
        if host_name not in entry.owners:
            return
        entry.owners.discard(host_name)
        owned = self._owner_index.get(host_name)
        if owned is not None:
            owned.discard(entry.uid)
            if not owned:
                del self._owner_index[host_name]
        self._update_deficit(entry)
        if self._mutation_hook is not None:
            self._mutation_hook(entry.uid)

    # ------------------------------------------------------------------ Θ management
    def _insert_entry(self, data: Data, attribute: Attribute,
                      scheduled_at: float) -> ScheduledEntry:
        """Put a datum not yet in Θ under management, at the next Θ position."""
        entry = ScheduledEntry(data=data, attribute=attribute,
                               scheduled_at=scheduled_at, seq=next(self._seq))
        self._entries[data.uid] = entry
        self._by_name.setdefault(data.name, set()).add(data.uid)
        # A new provider may satisfy dangling relative lifetimes.
        self._resolve_dependents(data.uid)
        self._resolve_dependents(data.name)
        self._attach_attribute(entry)
        return entry

    def schedule(self, data: Data, attribute: Optional[Attribute] = None) -> ScheduledEntry:
        """Associate *data* with *attribute* and put it under management."""
        attr = attribute if attribute is not None else DEFAULT_ATTRIBUTE
        entry = self._entries.get(data.uid)
        if entry is None:
            entry = self._insert_entry(data, attr, self.env.now)
        else:
            self._detach_attribute(entry)
            entry.attribute = attr
            self._attach_attribute(entry)
        if self._mutation_hook is not None:
            self._mutation_hook(data.uid)
        return entry

    def pin(self, data: Data, host_name: str,
            attribute: Optional[Attribute] = None) -> ScheduledEntry:
        """Schedule *data* and record that *host_name* owns it (paper §3.3)."""
        entry = self.schedule(data, attribute)
        self._add_owner(entry, host_name)
        return entry

    def unschedule(self, data_uid: str) -> bool:
        """Remove a datum from management; hosts drop it at their next sync."""
        return self._remove_entry(data_uid) is not None

    def entry(self, data_uid: str) -> Optional[ScheduledEntry]:
        return self._entries.get(data_uid)

    def entries(self) -> List[ScheduledEntry]:
        return list(self._entries.values())  # detlint: ignore[DET004] — Θ is keyed by registration order (event-deterministic); accessor preserves it

    def owners_of(self, data_uid: str) -> Set[str]:
        entry = self._entries.get(data_uid)
        return set(entry.owners) if entry else set()

    @property
    def managed_count(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ lifetime
    def _lifetime_valid(self, entry: ScheduledEntry) -> bool:
        """The lifetime test of the module's *Lifetime contract*: a reference
        resolves while it names any entry of Θ (uid, data or attribute name)."""
        attr = entry.attribute
        if attr.absolute_lifetime is not None:
            if self.env.now > entry.scheduled_at + attr.absolute_lifetime:
                return False
        reference = attr.relative_lifetime
        return reference is None or bool(reference in self._entries
                                         or self._by_name.get(reference)
                                         or self._by_attr.get(reference))

    # ------------------------------------------------------------------ Algorithm 1
    def _affinity_satisfied(self, reference: str, psi: Dict[str, ScheduledEntry],
                            cached_uids: Set[str]) -> bool:
        """True if the affinity *reference* designates data the host holds."""
        if reference in self._entries:
            return reference in psi or reference in cached_uids
        for index in (self._by_name, self._by_attr):
            for uid in index.get(reference, ()):
                if uid in psi or uid in cached_uids:
                    return True
        return False

    def _push_affinity_candidates(self, provider: ScheduledEntry,
                                  heap: List[Tuple[int, str]],
                                  pushed: Set[str],
                                  min_seq: Optional[int]) -> None:
        """Queue the entries whose affinity references *provider*.

        ``min_seq`` reproduces the reference implementation's single forward
        pass: data assigned at position *s* can only pull in affinity
        dependents that appear later in Θ than *s* within the same
        synchronisation (earlier ones wait for the host's next sync).
        """
        dependents = self._affinity_dependents
        for reference in (provider.uid, provider.data.name,
                          provider.attribute.name):
            for dep_uid in dependents.get(reference, ()):
                if dep_uid in pushed:
                    continue
                dep = self._entries.get(dep_uid)
                if dep is None:
                    continue
                if min_seq is not None and dep.seq <= min_seq:
                    continue
                pushed.add(dep_uid)
                heapq.heappush(heap, (dep.seq, dep_uid))

    def compute_schedule(self, host_name: str, cached_uids: Set[str],
                         reservoir: bool = True,
                         max_new: Optional[int] = None) -> SyncResult:
        """Pure scheduling decision (no simulated cost): Algorithm 1.

        ``reservoir`` distinguishes the paper's two volatile roles (§3.1):
        reservoir hosts offer their storage and are targets for replica
        placement; client hosts only receive data through affinity to data
        they already hold (e.g. results flowing to the master's Collector).

        ``max_new`` overrides ``MaxDataSchedule`` for this synchronisation
        (hosts with plenty of bandwidth — typically the master collecting
        results — may ask for a larger batch).

        Step 2 examines only *candidates*: the replica-deficit set plus the
        affinity dependents of data the host holds, walked in Θ-insertion
        order via a heap — never all of Θ.
        """
        limit = self.max_data_schedule if max_new is None else int(max_new)
        theta = self._entries
        psi: Dict[str, ScheduledEntry] = {}
        candidate_heap: List[Tuple[int, str]] = []
        pushed: Set[str] = set()

        # -- Step 1: keep cached data that is still managed and still alive.
        # Every managed cached datum (valid or not) is also an affinity
        # *provider*: its uid being in Δk is what the reference scan tests.
        # Sorted: Δk arrives as a set, and its iteration order fixes the
        # insertion order of Ψ (and thus the assigned-pairs list).
        for uid in sorted(cached_uids):
            entry = theta.get(uid)
            if entry is None:
                continue
            if self._lifetime_valid(entry):
                psi[uid] = entry
                self._add_owner(entry, host_name)
            if limit > 0:
                self._push_affinity_candidates(entry, candidate_heap, pushed,
                                               min_seq=None)

        # -- Step 2: assign new data, walking candidates in Θ order.  Two
        # seq-ordered sources are merged: the affinity candidates triggered
        # by this host's cache, and (for reservoir hosts) the shared
        # replica-deficit heap.  Deficit rows popped here are re-queued
        # afterwards unless the assignment satisfied the replica target —
        # the sets are disjoint, since affinity-constrained data is never in
        # the deficit.
        new_uids: List[str] = []
        deficit_heap = self._deficit_heap if (limit > 0 and reservoir) else None
        deficit_set = self._replica_deficit
        deficit_requeue: List[Tuple[int, str]] = []

        while True:
            if len(new_uids) >= limit:
                break
            if deficit_heap is not None:
                # Drop rows whose uid left the deficit, and rows from a
                # previous incarnation of a re-registered uid (their stale,
                # smaller seq would break the Θ-insertion-order walk).
                while deficit_heap and (
                        deficit_heap[0][1] not in deficit_set
                        or theta[deficit_heap[0][1]].seq != deficit_heap[0][0]):
                    heapq.heappop(deficit_heap)
            affinity_head = candidate_heap[0] if candidate_heap else None
            deficit_head = deficit_heap[0] if deficit_heap else None
            if affinity_head is None and deficit_head is None:
                break
            if deficit_head is not None and (
                    affinity_head is None or deficit_head[0] < affinity_head[0]):
                seq, uid = heapq.heappop(deficit_heap)
                deficit_requeue.append((seq, uid))
            else:
                seq, uid = heapq.heappop(candidate_heap)
            entry = theta.get(uid)
            if entry is None:
                continue
            self.entries_examined += 1
            if uid in psi or uid in cached_uids:
                continue
            if self._quiesced and uid in self._quiesced:
                # Frozen for migration: no new placements until the key's
                # new shard takes over (it stays in the deficit for later).
                continue
            if not self._lifetime_valid(entry):
                # Dead candidates leave the deficit so later syncs stop
                # re-examining them (the final requeue filter checks
                # membership).  An absolute expiry re-enters only through a
                # fresh attribute; a dangling relative reference re-enters
                # via _resolve_dependents when a provider appears.
                deficit_set.discard(uid)
                continue
            attr = entry.attribute
            assigned = False

            # Affinity resolution: schedule wherever the referenced data lives.
            if attr.has_affinity and self._affinity_satisfied(
                    attr.affinity, psi, cached_uids):
                assigned = True

            # Replica placement (reservoir hosts only).  Affinity-constrained
            # data is *only* placed by affinity.
            if not assigned and reservoir and not attr.has_affinity:
                if attr.replicate_to_all or len(entry.owners) < attr.replica:
                    assigned = True

            if assigned:
                psi[uid] = entry
                self._add_owner(entry, host_name)
                new_uids.append(uid)
                self.assignments += 1
                # The assignment may satisfy affinities later in Θ.
                self._push_affinity_candidates(entry, candidate_heap, pushed,
                                               min_seq=seq)

        for row in deficit_requeue:
            if row[1] in deficit_set:
                heapq.heappush(self._deficit_heap, row)

        to_delete = sorted(uid for uid in cached_uids if uid not in psi)
        assigned_pairs = [(e.data, e.attribute) for e in psi.values()]  # detlint: ignore[DET004] — Ψ insertion order is sorted Δk then heap-pop order, both deterministic
        return SyncResult(host_name=host_name, assigned=assigned_pairs,
                          to_delete=to_delete, to_download=sorted(new_uids),
                          time=self.env.now)

    def _execute(self, operation: Callable[[], object], admin: bool = False):
        """Generator: *operation* as one database statement (``admin``: on
        the maintenance connection), or one zero-delay yield without one."""
        if self.database is None:
            yield self.env.timeout(0.0)
            return operation()
        run = self.database.admin_execute if admin else self.database.execute
        result = yield from run(operation)
        return result

    def synchronize(self, host_name: str, cached_uids: Set[str],
                    reservoir: bool = True, max_new: Optional[int] = None):
        """Generator: the remote synchronisation call (heartbeat + Algorithm 1).

        This is what volatile hosts invoke periodically; it counts as a
        heartbeat for the failure detector and pays one database statement.
        """
        self.sync_count += 1
        if self.failure_detector is not None:
            self.failure_detector.heartbeat(host_name)
        result = yield from self._execute(
            lambda: self.compute_schedule(host_name, set(cached_uids),
                                          reservoir=reservoir,
                                          max_new=max_new))
        return result

    # ------------------------------------------------------------------ batched Algorithm 1
    def compute_schedule_batch(
        self,
        host_names: Sequence[str],
        cached_uids_per_host: Sequence[Set[str]],
        reservoir: bool = True,
        max_new: Optional[int] = None,
    ) -> List[SyncResult]:
        """Evaluate Algorithm 1 for a whole cohort of hosts in one call.

        Returns exactly what ``[compute_schedule(h, c, ...) for h, c in
        zip(host_names, cached_uids_per_host)]`` would — the same per-host
        schedules *and* the same observable scheduler state afterwards
        (owners, replica deficit, ``assignments``/``entries_examined``
        deltas, mutation-hook calls in the same order; pinned by the
        hypothesis oracle in ``tests/test_data_scheduler_batch.py``).

        One fast regime sits in front of that loop, entered when the inputs
        show every host takes one fresh datum by the replica rule alone:
        reservoir hosts, a limit of one, no affinity dependents, quiesced
        uids or lifetimes, distinct hosts, no duplicate live deficit rows,
        candidates disjoint from every host's cache and holdings.  There
        the deficit heap is drained once, as far as the cohort's demand,
        and host *k* takes the first candidate with replica capacity left —
        the one the *k*-th sequential call would have popped.
        """
        limit = self.max_data_schedule if max_new is None else int(max_new)
        theta, owner_index = self._entries, self._owner_index
        deficit_set, heap = self._replica_deficit, self._deficit_heap
        n_hosts = len(host_names)
        # Candidates as (seq, uid, entry, capacity), ascending in Θ order.
        rows: List[Tuple[int, str, ScheduledEntry, int]] = []
        fast = (reservoir and limit == 1 and not self._affinity_dependents
                and not self._quiesced and not self._lifetime_count
                and len(set(host_names)) == n_hosts)
        if fast:
            # Materialise candidates until their capacity serves the cohort,
            # dropping what the sequential walk's stale filter drops: rows
            # whose uid left the deficit or was re-registered since.
            capacity = 0
            while capacity < n_hosts and heap:
                seq, uid = heapq.heappop(heap)
                if uid not in deficit_set or theta[uid].seq != seq:
                    continue
                entry = theta[uid]
                attr = entry.attribute
                cap = (n_hosts if attr.replicate_to_all
                       else attr.replica - len(entry.owners))
                rows.append((seq, uid, entry, cap))
                capacity += cap
            # The sequential walk examines a duplicate live row (a uid that
            # left and re-entered the deficit) twice and skips a candidate
            # the host caches or owns: neither is one candidate per host.
            candidates = {row[1] for row in rows}
            fast = len(candidates) == len(rows) and all(
                candidates.isdisjoint(cached)
                and candidates.isdisjoint(owner_index.get(host, ()))
                for host, cached in zip(host_names, cached_uids_per_host))
        if not fast:
            for seq, uid, _entry, _cap in rows:
                heapq.heappush(heap, (seq, uid))
            return [self.compute_schedule(host, set(cached),
                                          reservoir=reservoir, max_new=max_new)
                    for host, cached in zip(host_names, cached_uids_per_host)]

        now, hook = self.env.now, self._mutation_hook
        results: List[SyncResult] = []
        j = 0                               # first row with capacity left
        left = rows[0][3] if rows else 0    # ... and how much of it
        for host, cached in zip(host_names, cached_uids_per_host):
            psi: Dict[str, ScheduledEntry] = {}
            to_delete: List[str] = []
            for uid in sorted(cached):
                entry = theta.get(uid)
                if entry is None:
                    to_delete.append(uid)
                else:
                    psi[uid] = entry
                    self._add_owner(entry, host)
            new_uids: List[str] = []
            if j < len(rows):
                _seq, uid, entry, _cap = rows[j]
                # The only candidate this host examines: earlier rows were
                # exhausted by earlier hosts and dropped unexamined.
                self.entries_examined += 1
                psi[uid] = entry
                # ``_add_owner``, inlined: the guard proved *host* does not
                # own the candidate, and deficit rows carry no affinity.
                entry.owners.add(host)
                owner_index.setdefault(host, set()).add(uid)
                left -= 1
                if left == 0:
                    if not entry.attribute.replicate_to_all:
                        deficit_set.discard(uid)
                    j += 1
                    if j < len(rows):
                        left = rows[j][3]
                if hook is not None:
                    hook(uid)
                self.assignments += 1
                new_uids.append(uid)
            results.append(SyncResult(
                host_name=host,
                assigned=[(e.data, e.attribute) for e in psi.values()],  # detlint: ignore[DET004] — Ψ insertion order is sorted Δk then the candidate, both deterministic
                to_delete=to_delete, to_download=new_uids, time=now))
        # Re-queue each candidate still in deficit once — the live rows the
        # sequential per-host requeue leaves behind.
        for seq, uid, _entry, _cap in rows:
            if uid in deficit_set:
                heapq.heappush(heap, (seq, uid))
        return results

    def heartbeat(self, host_name: str) -> bool:
        """Record a liveness heartbeat from a volatile host.

        Reservoir hosts send these periodically, independently of the (possibly
        long-running) synchronisation/download cycle, so that a host busy
        downloading a large file is not declared dead (§3.1).
        """
        if self.failure_detector is not None:
            self.failure_detector.heartbeat(host_name)
            return True
        return False

    def confirm_ownership(self, host_name: str, data_uid: str) -> None:
        """Record that *host_name* finished downloading *data_uid*."""
        entry = self._entries.get(data_uid)
        if entry is not None:
            self._add_owner(entry, host_name)

    # ------------------------------------------------------------------ fault tolerance
    def _on_host_failure(self, host_name: str) -> None:
        """Failure-detector callback: repair owner lists of fault-tolerant data.

        The owner index makes this O(data owned by the failed host) instead
        of a scan over Θ.
        """
        owned = self._owner_index.get(host_name)
        if not owned:
            return
        for uid in list(owned):
            entry = self._entries.get(uid)
            if entry is None:
                continue
            if entry.attribute.fault_tolerance:
                # Remove the faulty owner so the datum is re-scheduled elsewhere.
                self._remove_owner(entry, host_name)
                self.repairs_triggered += 1
            # Non-fault-tolerant data: the replica stays registered (it will be
            # available again if the host comes back), as prescribed in §3.2.

    # ------------------------------------------------------------------ migration
    # The elastic fabric moves Θ entries between scheduler shards by uid.
    # Export/import preserve everything Algorithm 1 can observe — attribute,
    # owners Ω, the original scheduled_at (absolute lifetimes keep their
    # expiry instant) — except the Θ-insertion seq, which is re-issued on
    # the destination in deterministic import order.

    def migration_keys(self) -> List[str]:
        """Sorted uids under this shard's management (no simulated cost)."""
        return sorted(self._entries)

    def export_entry_now(self, data_uid: str) -> Optional[dict]:
        entry = self._entries.get(data_uid)
        if entry is None:
            return None
        return {
            "data": entry.data,
            "attribute": entry.attribute,
            "scheduled_at": entry.scheduled_at,
            "owners": set(entry.owners),
        }

    def export_entry(self, data_uid: str):
        """Generator: read one Θ entry out (one admin-connection statement)."""
        return self._execute(lambda: self.export_entry_now(data_uid),
                             admin=True)

    def import_entry_now(self, snapshot: dict) -> ScheduledEntry:
        data = snapshot["data"]
        if data.uid in self._entries:
            # Delta re-copy replaces the previous import wholesale.
            self._remove_entry(data.uid)
        entry = self._insert_entry(data, snapshot["attribute"],
                                   snapshot["scheduled_at"])
        for host in sorted(snapshot["owners"]):
            self._add_owner(entry, host)
        return entry

    def import_entry(self, snapshot: dict):
        """Generator: install one Θ entry (one admin-connection statement)."""
        return self._execute(lambda: self.import_entry_now(snapshot),
                             admin=True)

    def drop_entry_now(self, data_uid: str) -> bool:
        """Remove a migrated-away entry from this shard's Θ.

        Unlike :meth:`unschedule` this is *not* host-visible: by the time
        the source shard drops the entry the router already sends every
        request for the uid — including the synchronisations whose Ψ decides
        deletions — to the destination shard, which manages it.
        """
        removed = self._remove_entry(data_uid)
        self._quiesced.discard(data_uid)
        return removed is not None

    def drop_entry(self, data_uid: str):
        """Generator: drop one migrated entry (one admin-connection statement)."""
        return self._execute(lambda: self.drop_entry_now(data_uid),
                             admin=True)

    def quiesce(self, uids) -> None:
        """Freeze new placements of *uids* while they migrate away."""
        self._quiesced.update(uids)

    def unquiesce(self, uids) -> None:
        self._quiesced.difference_update(uids)

    def missing_replicas(self) -> Dict[str, int]:
        """uids whose live owner count is below the requested replica level."""
        missing: Dict[str, int] = {}
        for uid, entry in self._entries.items():  # detlint: ignore[DET004] — Θ registration order is event-deterministic; result dict is consumed by deficit, not order
            attr = entry.attribute
            if attr.replicate_to_all:
                continue
            deficit = attr.replica - len(entry.owners)
            if deficit > 0:
                missing[uid] = deficit
        return missing
