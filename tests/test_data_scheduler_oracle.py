"""Oracle for the indexed Data Scheduler.

``ReferenceScheduler`` is the implementation the indexed
``DataSchedulerService`` replaced: an insertion-ordered Θ and nothing else,
Algorithm 1 as two full scans, references resolved by a linear search.  A
hypothesis state machine drives both through the same operations and, after
every one, requires the same synchronisation result (``to_delete``,
``to_download``, the assigned uids in order), the same Θ order, the same
owners of every datum and the same ``assignments`` count.
``entries_examined`` is not compared: examining fewer entries is the point
of the indexes.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule, run_state_machine_as_test)

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.services.data_scheduler import DataSchedulerService
from repro.sim.kernel import Environment


# ---------------------------------------------------------------------------
# The reference: scan all of Θ per synchronisation, search it per reference.
# ---------------------------------------------------------------------------
class ReferenceEntry:
    def __init__(self, data, attribute, scheduled_at):
        self.data = data
        self.attribute = attribute
        self.scheduled_at = scheduled_at
        self.owners = set()


class ReferenceScheduler:
    def __init__(self, max_data_schedule):
        self.max_data_schedule = max_data_schedule
        self.now = 0.0
        #: Θ: uid -> entry, in insertion order
        self.theta = {}
        self.quiesced = set()
        self.assignments = 0

    def schedule(self, data, attribute):
        entry = self.theta.get(data.uid)
        if entry is None:
            entry = self.theta[data.uid] = ReferenceEntry(data, attribute,
                                                          self.now)
        else:
            entry.attribute = attribute
        return entry

    def pin(self, data, host_name, attribute):
        self.schedule(data, attribute).owners.add(host_name)

    def unschedule(self, uid):
        return self.theta.pop(uid, None) is not None

    def confirm_ownership(self, host_name, uid):
        if uid in self.theta:
            self.theta[uid].owners.add(host_name)

    def host_failed(self, host_name):
        for entry in self.theta.values():
            if entry.attribute.fault_tolerance:
                entry.owners.discard(host_name)

    def owners_of(self, uid):
        return set(self.theta[uid].owners) if uid in self.theta else set()

    def _resolve_all(self, reference):
        """A uid designates that entry; anything else every entry carrying
        it as data name or attribute name."""
        if reference in self.theta:
            return [self.theta[reference]]
        return [entry for entry in self.theta.values()
                if reference in (entry.data.name, entry.attribute.name)]

    def _lifetime_valid(self, entry):
        attribute = entry.attribute
        if attribute.absolute_lifetime is not None \
                and self.now > entry.scheduled_at + attribute.absolute_lifetime:
            return False
        return attribute.relative_lifetime is None \
            or bool(self._resolve_all(attribute.relative_lifetime))

    def compute_schedule(self, host_name, cached_uids, reservoir, max_new):
        limit = self.max_data_schedule if max_new is None else max_new
        psi = {}
        # Step 1: keep what the host caches that is managed and alive.
        for uid in sorted(cached_uids):
            entry = self.theta.get(uid)
            if entry is not None and self._lifetime_valid(entry):
                psi[uid] = entry
                entry.owners.add(host_name)
        # Step 2: one forward pass over Θ.
        new_uids = []
        for uid, entry in self.theta.items():
            if len(new_uids) >= limit:
                break
            if uid in psi or uid in cached_uids or uid in self.quiesced \
                    or not self._lifetime_valid(entry):
                continue
            attribute = entry.attribute
            if attribute.has_affinity:
                # Affinity-constrained data is placed by affinity only.
                assigned = any(
                    ref.data.uid in psi or ref.data.uid in cached_uids
                    for ref in self._resolve_all(attribute.affinity))
            else:
                assigned = reservoir and (
                    attribute.replicate_to_all
                    or len(entry.owners) < attribute.replica)
            if assigned:
                psi[uid] = entry
                entry.owners.add(host_name)
                new_uids.append(uid)
                self.assignments += 1
        return (sorted(uid for uid in cached_uids if uid not in psi),
                sorted(new_uids), list(psi))


# ---------------------------------------------------------------------------
# The state machine.
# ---------------------------------------------------------------------------
#: Eight data under four names, so a name designates two data.
POOL = [Data(name=f"n{i % 4}", uid=f"u{i}") for i in range(8)]
ATTRIBUTE_NAMES = [f"A{i}" for i in range(4)]
HOSTS = [f"h{i}" for i in range(4)]
#: What an affinity or a relative lifetime may name: a uid, a data name, an
#: attribute name, or nothing that is ever managed.
REFERENCES = st.sampled_from(
    [d.uid for d in POOL] + [f"n{i}" for i in range(4)] + ATTRIBUTE_NAMES
    + ["nowhere"])

DATA = st.sampled_from(POOL)
HOST = st.sampled_from(HOSTS)
ATTRIBUTES = st.builds(
    Attribute,
    name=st.sampled_from(ATTRIBUTE_NAMES),
    replica=st.sampled_from([-1, 1, 2, 3]),
    fault_tolerance=st.booleans(),
    # Short enough to expire under the clock advances below.
    absolute_lifetime=st.sampled_from([None, None, 5.0, 20.0]),
    relative_lifetime=st.one_of(st.none(), st.none(), REFERENCES),
    affinity=st.one_of(st.none(), st.none(), REFERENCES))
CACHES = st.sets(st.sampled_from([d.uid for d in POOL] + ["ghost"]),
                 max_size=5)


class SchedulerMachine(RuleBasedStateMachine):
    """Every rule applies one operation to both schedulers and compares."""

    scheduler_class = DataSchedulerService

    @initialize(max_data_schedule=st.integers(1, 4), seeded=st.booleans())
    def build(self, max_data_schedule, seeded):
        self.env = Environment()
        self.fast = self.scheduler_class(self.env,
                                         max_data_schedule=max_data_schedule)
        self.reference = ReferenceScheduler(max_data_schedule)
        #: host -> the cache its last synchronisation left it with
        self.caches = {host: set() for host in HOSTS}
        if seeded:
            # u4 follows u1 but precedes it in Θ: the pass that places u1 has
            # already walked past u4, which waits for the host's next one.
            self.schedule(POOL[4], Attribute(name="A0", affinity="u1"))
            # u0 → u1 → u2 → u3: each lives as long as its predecessor, named
            # by uid, by data name and by attribute name; the head expires.
            self.schedule(POOL[0], Attribute(name="A0", absolute_lifetime=5.0))
            self.schedule(POOL[1], Attribute(name="A1", relative_lifetime="u0"))
            self.schedule(POOL[2], Attribute(name="A2", relative_lifetime="n1"))
            self.schedule(POOL[3], Attribute(name="A3", relative_lifetime="A2"))

    # -- Θ mutations -----------------------------------------------------------
    @rule(data=DATA, attribute=ATTRIBUTES)
    def schedule(self, data, attribute):
        """A first registration, a re-registration after ``unschedule`` or a
        new attribute for a managed datum, whichever *data* is due."""
        self.fast.schedule(data, attribute)
        self.reference.schedule(data, attribute)

    @rule(data=DATA, host=HOST, attribute=ATTRIBUTES)
    def pin(self, data, host, attribute):
        self.fast.pin(data, host, attribute)
        self.reference.pin(data, host, attribute)

    @rule(data=DATA)
    def unschedule(self, data):
        assert self.fast.unschedule(data.uid) \
            == self.reference.unschedule(data.uid)

    @rule(data=DATA, host=HOST)
    def confirm_ownership(self, data, host):
        self.fast.confirm_ownership(host, data.uid)
        self.reference.confirm_ownership(host, data.uid)

    @rule(host=HOST)
    def host_failure(self, host):
        self.fast._on_host_failure(host)
        self.reference.host_failed(host)
        self.caches[host] = set()

    @rule(uids=CACHES, freeze=st.booleans())
    def quiesce(self, uids, freeze):
        if freeze:
            self.fast.quiesce(uids)
            self.reference.quiesced |= uids
        else:
            self.fast.unquiesce(uids)
            self.reference.quiesced -= uids

    @rule(dt=st.sampled_from([1.0, 4.0, 12.0]))
    def advance_clock(self, dt):
        self.env.run(until=self.env.now + dt)
        self.reference.now = self.env.now

    # -- Algorithm 1 -----------------------------------------------------------
    @rule(host=HOST, presented=st.one_of(st.none(), CACHES),
          reservoir=st.booleans(),
          max_new=st.one_of(st.none(), st.integers(0, 3)))
    def synchronize(self, host, presented, reservoir, max_new):
        """The host presents the cache its last synchronisation gave it, or
        an arbitrary one (uids it never held, unmanaged uids)."""
        cached = self.caches[host] if presented is None else presented
        result = self.fast.compute_schedule(host, set(cached),
                                            reservoir=reservoir,
                                            max_new=max_new)
        expected = self.reference.compute_schedule(host, set(cached),
                                                   reservoir, max_new)
        assert (result.to_delete, result.to_download,
                [data.uid for data, _attribute in result.assigned]) == expected
        for data, attribute in result.assigned:
            assert attribute is self.reference.theta[data.uid].attribute
        self.caches[host] = set(expected[2])

    # -- what must match after every step ---------------------------------------
    @invariant()
    def same_observables(self):
        assert [e.uid for e in self.fast.entries()] == list(self.reference.theta)
        for data in POOL:
            assert self.fast.owners_of(data.uid) \
                == self.reference.owners_of(data.uid), data.uid
        assert self.fast.assignments == self.reference.assignments


SchedulerMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestSchedulerAgainstReference = SchedulerMachine.TestCase


# ---------------------------------------------------------------------------
# The oracle bites: a plausible slip of the indexed walk must fail it.
# ---------------------------------------------------------------------------
class _NoForwardPassScheduler(DataSchedulerService):
    """``_push_affinity_candidates`` without its ``min_seq`` filter: an
    assignment also pulls in affinity dependents *earlier* in Θ, which the
    reference's single forward pass has already walked past."""

    def _push_affinity_candidates(self, provider, heap, pushed, min_seq):
        super()._push_affinity_candidates(provider, heap, pushed, None)


def test_oracle_fails_a_wrong_scheduler(hypothesis_own_constants):
    machine = type("Mutant", (SchedulerMachine,),
                   {"scheduler_class": _NoForwardPassScheduler})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            machine, settings=settings(max_examples=400, derandomize=True,
                                       database=None, deadline=None,
                                       phases=[Phase.generate],
                                       report_multiple_bugs=False))
