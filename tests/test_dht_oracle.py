"""Oracle for the indexed Chord ring.

``ReferenceRing`` is the implementation the indexed ``ChordRing`` replaced:
it re-sorts the membership on every read and recomputes every node's
routing state on every membership change.  A hypothesis state machine
drives both rings through the same operations and requires every
observable to match: ring order, each alive node's predecessor / successor
list / fingers, lookup hop paths, ``requests_served`` and ``storage``.
"""

from __future__ import annotations

import bisect

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule, run_state_machine_as_test)

from repro.dht.chord import ChordRing, LookupResult, chord_hash
from repro.services.router import ShardRing


# ---------------------------------------------------------------------------
# The reference: sort per call, global rebuild per membership change.
# ---------------------------------------------------------------------------
def _in_interval(x, a, b, modulus, inclusive_right=False):
    x, a, b = x % modulus, a % modulus, b % modulus
    if a == b:
        return inclusive_right or x != a
    if a < b:
        return a < x <= b if inclusive_right else a < x < b
    return (x > a or x <= b) if inclusive_right else (x > a or x < b)


class ReferenceNode:
    def __init__(self, name, bits=32):
        self.name = name
        self.bits = bits
        self.node_id = chord_hash(name, bits)
        self.fingers = []
        self.successors = []
        self.predecessor = None
        self.storage = {}
        self.alive = True
        self.requests_served = 0

    def store(self, key, value):
        self.storage.setdefault(key, set()).add(value)

    def retrieve(self, key):
        return set(self.storage.get(key, set()))

    def remove(self, key, value=None):
        if key not in self.storage:
            return False
        if value is None:
            del self.storage[key]
            return True
        self.storage[key].discard(value)
        if not self.storage[key]:
            del self.storage[key]
        return True

    def closest_preceding_finger(self, key_id, modulus):
        for finger in reversed(self.fingers):
            if finger.alive and _in_interval(finger.node_id, self.node_id,
                                             key_id, modulus):
                return finger
        return self


class ReferenceRing:
    def __init__(self, bits=32, replication=2, successor_list_size=4):
        self.bits = bits
        self.modulus = 1 << bits
        self.replication = replication
        self.successor_list_size = max(successor_list_size, replication)
        self._nodes = {}

    @property
    def nodes(self):
        return sorted((n for n in self._nodes.values() if n.alive),
                      key=lambda n: n.node_id)

    def __len__(self):
        return len([n for n in self._nodes.values() if n.alive])

    def get_node(self, name):
        return self._nodes[name]

    def join(self, name):
        if name in self._nodes and self._nodes[name].alive:
            raise ValueError(f"node {name!r} already in the ring")
        node = ReferenceNode(name, self.bits)
        if any(n.node_id == node.node_id and n.alive
               for n in self._nodes.values()):
            raise ValueError(f"identifier collision for {name!r}")
        self._nodes[name] = node
        self._rebuild()
        self._migrate_keys_to(node)
        return node

    def leave(self, name):
        node = self._nodes.get(name)
        if node is None or not node.alive:
            return
        successor = self.successor_of_node(node)
        if successor is not None and successor is not node:
            for key, values in node.storage.items():
                for value in values:
                    successor.store(key, value)
        node.alive = False
        node.storage.clear()
        del self._nodes[name]
        self._rebuild()
        # The replica-invariant fix this PR also applies to ChordRing.leave.
        self._restore_replication()

    def fail(self, name):
        node = self._nodes.get(name)
        if node is None or not node.alive:
            return
        node.alive = False
        node.storage.clear()
        del self._nodes[name]
        self._rebuild()
        self._restore_replication()

    def _rebuild(self):
        nodes = self.nodes
        count = len(nodes)
        if count == 0:
            return
        ids = [n.node_id for n in nodes]
        for index, node in enumerate(nodes):
            node.predecessor = nodes[index - 1]
            node.successors = [
                nodes[(index + 1 + k) % count]
                for k in range(min(self.successor_list_size, count - 1) or 1)
            ] or [node]
            node.fingers = [
                self._successor_of_id((node.node_id + (1 << i)) % self.modulus,
                                      nodes, ids)
                for i in range(self.bits)
            ]

    @staticmethod
    def _successor_of_id(key_id, nodes, ids):
        return nodes[bisect.bisect_left(ids, key_id) % len(nodes)]

    def successor_of(self, key_id):
        nodes = self.nodes
        if not nodes:
            raise RuntimeError("the ring is empty")
        return self._successor_of_id(key_id % self.modulus, nodes,
                                     [n.node_id for n in nodes])

    def successor_of_node(self, node):
        others = [n for n in self.nodes if n is not node]
        if not others:
            return None
        return self._successor_of_id((node.node_id + 1) % self.modulus, others,
                                     [n.node_id for n in others])

    def replicas_for(self, key_id):
        nodes = self.nodes
        if not nodes:
            return []
        primary = self.successor_of(key_id)
        result = [primary]
        cursor = primary
        while len(result) < min(self.replication, len(nodes)):
            cursor = self.successor_of_node(cursor) or cursor
            if cursor in result:
                break
            result.append(cursor)
        return result

    def lookup(self, key, start=None):
        nodes = self.nodes
        if not nodes:
            raise RuntimeError("the ring is empty")
        key_id = chord_hash(key, self.bits)
        current = start if start is not None and start.alive else nodes[0]
        hops = []
        target = self.successor_of(key_id)
        for _ in range(2 * self.bits):
            current.requests_served += 1
            if current is target:
                break
            successor = self.successor_of_node(current) or current
            if _in_interval(key_id, current.node_id, successor.node_id,
                            self.modulus, inclusive_right=True):
                hops.append(successor)
                successor.requests_served += 1
                current = successor
                break
            nxt = current.closest_preceding_finger(key_id, self.modulus)
            if nxt is current:
                nxt = successor
            hops.append(nxt)
            current = nxt
        return LookupResult(key_id=key_id, node=target, hops=hops)

    def put(self, key, value, start=None):
        result = self.lookup(key, start)
        for replica in self.replicas_for(result.key_id):
            replica.store(key, value)
        return result

    def get(self, key, start=None):
        result = self.lookup(key, start)
        values = result.node.retrieve(key)
        if not values:
            for replica in self.replicas_for(result.key_id):
                values = replica.retrieve(key)
                if values:
                    break
        return values, result

    def delete(self, key, value=None, start=None):
        result = self.lookup(key, start)
        for replica in self.replicas_for(result.key_id):
            replica.remove(key, value)
        return result

    def _migrate_keys_to(self, node):
        successor = self.successor_of_node(node)
        if successor is None:
            return
        to_move = [
            key for key in successor.storage
            if self.successor_of(chord_hash(key, self.bits)) is node
        ]
        for key in to_move:
            for value in successor.retrieve(key):
                node.store(key, value)
        self._restore_replication()

    def _restore_replication(self):
        if not self.nodes:
            return
        all_items = []
        for node in self.nodes:
            for key, values in node.storage.items():
                for value in values:
                    all_items.append((key, value))
        for key, value in all_items:
            for replica in self.replicas_for(chord_hash(key, self.bits)):
                replica.store(key, value)


# ---------------------------------------------------------------------------
# The state machine.
# ---------------------------------------------------------------------------
MAX_NODES = 40
NAMES = st.sampled_from([f"n{i}" for i in range(60)])
KEYS = st.sampled_from([f"k{i}" for i in range(30)])
VALUES = st.integers(0, 3)


def _names(nodes):
    return [n.name for n in nodes]


def _route(result):
    return (result.key_id, result.node.name, _names(result.hops))


def _outcome(call):
    """What a call did: its value, or the error it raised."""
    try:
        return ("ok", call())
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))


class RingMachine(RuleBasedStateMachine):
    """Every rule applies one operation to both rings and compares."""

    ring_class = ChordRing

    @initialize(bits=st.integers(8, 32), replication=st.integers(1, 3),
                routing_every_step=st.booleans(),
                size=st.integers(0, MAX_NODES), first=st.integers(0, 59))
    def build(self, bits, replication, routing_every_step, size, first):
        self.rings = (self.ring_class(bits=bits, replication=replication),
                      ReferenceRing(bits=bits, replication=replication))
        # Reading routing state refreshes it; half the runs read it only at
        # the end so nodes also stay stale across several membership changes.
        self.routing_every_step = routing_every_step
        #: name -> the (fast, reference) node objects that last left or failed
        self.departed = {}
        self.membership_changed = False
        for i in range(size):
            self.join(f"n{(first + i) % 60}")

    def both(self, call):
        fast, reference = [_outcome(lambda: call(ring, side))
                           for side, ring in enumerate(self.rings)]
        assert fast == reference
        return fast

    def start_of(self, ring, side, name):
        """The start node *name* denotes: a member, a departed node, or None."""
        if name is None:
            return None
        if name in ring._nodes:
            return ring.get_node(name)
        pair = self.departed.get(name)
        return None if pair is None else pair[side]

    STARTS = st.one_of(st.none(), NAMES)

    # -- membership ----------------------------------------------------------
    @precondition(lambda self: len(self.rings[0]) < MAX_NODES)
    @rule(name=NAMES)
    def join(self, name):
        # A rejected join (name taken, identifier collision) changes nothing.
        self.membership_changed = \
            self.both(lambda ring, _: ring.join(name).name)[0] == "ok"

    def _depart(self, name, how):
        if name in self.rings[0]._nodes:
            self.departed[name] = tuple(r.get_node(name) for r in self.rings)
            self.membership_changed = True
        self.both(lambda ring, _: getattr(ring, how)(name))

    @rule(name=NAMES)
    def leave(self, name):
        self._depart(name, "leave")

    @rule(name=NAMES)
    def fail(self, name):
        self._depart(name, "fail")

    # -- routing and storage ---------------------------------------------------
    @rule(key=KEYS, start=STARTS)
    def lookup(self, key, start):
        self.both(lambda ring, side: _route(
            ring.lookup(key, self.start_of(ring, side, start))))

    @rule(key=KEYS, value=VALUES, start=STARTS)
    def put(self, key, value, start):
        self.both(lambda ring, side: _route(
            ring.put(key, value, self.start_of(ring, side, start))))

    @rule(key=KEYS, start=STARTS)
    def get(self, key, start):
        def call(ring, side):
            values, result = ring.get(key, self.start_of(ring, side, start))
            return values, _route(result)
        self.both(call)

    @rule(key=KEYS, value=st.one_of(st.none(), VALUES), start=STARTS)
    def delete(self, key, value, start):
        self.both(lambda ring, side: _route(
            ring.delete(key, value, self.start_of(ring, side, start))))

    @rule(key_id=st.integers(0, (1 << 33)))
    def successor_and_replicas(self, key_id):
        self.both(lambda ring, _: ring.successor_of(key_id).name)
        self.both(lambda ring, _: _names(ring.replicas_for(key_id)))

    # -- what must match after every step ----------------------------------------
    @invariant()
    def same_observables(self):
        fast, reference = self.rings
        assert _names(fast.nodes) == _names(reference.nodes)
        assert len(fast) == len(reference) == len(fast.nodes)
        for mine, theirs in zip(fast.nodes, reference.nodes):
            assert mine.alive and theirs.alive
            assert mine.node_id == theirs.node_id
            assert mine.requests_served == theirs.requests_served
            assert mine.storage == theirs.storage
            assert list(mine.storage) == list(theirs.storage)
        # Next-in-ring for members and for nodes no longer in the ring.
        pairs = list(zip(fast.nodes, reference.nodes)) \
            + [self.departed[name] for name in sorted(self.departed)]
        for mine, theirs in pairs:
            nxt, expected = (fast.successor_of_node(mine),
                             reference.successor_of_node(theirs))
            assert (nxt and nxt.name) == (expected and expected.name)
        if self.routing_every_step:
            self.same_routing_state()

    def same_routing_state(self):
        fast, reference = self.rings
        for mine, theirs in zip(fast.nodes, reference.nodes):
            assert mine.predecessor.name == theirs.predecessor.name
            assert _names(mine.successors) == _names(theirs.successors)
            assert _names(mine.fingers) == _names(theirs.fingers)
            assert len(mine.fingers) == fast.bits

    @invariant()
    def replica_invariant_after_membership_change(self):
        """Every stored (key, value) is on every node of ``replicas_for(key)``.

        Only a membership operation repairs replication, so only then is it
        asserted: a ``delete`` reaches the current replica set and can leave
        the copy an earlier holder kept when a join moved the key away.
        """
        if not self.membership_changed:
            return
        self.membership_changed = False
        ring = self.rings[0]
        for node in ring.nodes:
            for key, values in node.storage.items():
                for replica in ring.replicas_for(chord_hash(key, ring.bits)):
                    assert values <= replica.storage.get(key, set()), \
                        (key, node.name, replica.name)

    def teardown(self):
        if hasattr(self, "rings"):
            self.same_routing_state()


TestRingAgainstReference = RingMachine.TestCase


# ---------------------------------------------------------------------------
# The oracle bites: two plausible slips of the indexed ring must fail it.
# ---------------------------------------------------------------------------
class _NoWrapRing(ChordRing):
    """successor_of_node off by one at the wrap: the last node has no next."""

    def successor_of_node(self, node):
        index = bisect.bisect_left(self._ids, (node.node_id + 1) % self.modulus)
        if index >= len(self._order):
            return None
        candidate = self._order[index]
        return None if candidate is node else candidate


class _StaleFingersRing(ChordRing):
    """A departure that forgets to invalidate the members' routing state."""

    def _drop(self, node):
        version = self._version
        super()._drop(node)
        self._version = version


@pytest.mark.parametrize("mutant", [_NoWrapRing, _StaleFingersRing])
def test_oracle_fails_a_wrong_ring(mutant, hypothesis_own_constants):
    machine = type("Mutant", (RingMachine,), {"ring_class": mutant})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            machine, settings=settings(derandomize=True, database=None,
                                       deadline=None, phases=[Phase.generate],
                                       report_multiple_bugs=False))


# ---------------------------------------------------------------------------
# Edges the machine reaches only by luck, pinned outright.
# ---------------------------------------------------------------------------
def test_empty_one_and_two_node_rings():
    ring = ChordRing(bits=8, replication=3)
    assert ring.nodes == [] and len(ring) == 0
    assert ring.replicas_for(5) == []
    with pytest.raises(RuntimeError):
        ring.successor_of(5)
    a = ring.join("a")
    assert ring.successor_of_node(a) is None
    assert a.predecessor is a and a.successors == [a]
    assert a.fingers == [a] * 8
    assert ring.replicas_for(0) == [a]
    b = ring.join("b")
    assert ring.successor_of_node(a) is b and ring.successor_of_node(b) is a
    assert a.predecessor is b and a.successors == [b]
    assert set(a.fingers) <= {a, b} and b in a.fingers
    ring.fail("b")
    assert a.successors == [a] and a.fingers == [a] * 8
    # A departed node is answered as a non-member: the first node after its id.
    assert ring.successor_of_node(b) is a


def test_leave_restores_the_tail_replica():
    """Seed bug: the successor took the keys but its own tail replica did not."""
    ring = ChordRing(replication=2)
    for i in range(8):
        ring.join(f"n{i}")
    for i in range(200):
        ring.put(f"key{i}", i)
    ring.leave("n3")
    for i in range(200):
        holders = ring.replicas_for(chord_hash(f"key{i}", ring.bits))
        assert len(holders) == 2
        assert all(i in node.storage.get(f"key{i}", set()) for node in holders)


# ---------------------------------------------------------------------------
# ShardRing: the fabric's key → shard map rides the same index.
# ---------------------------------------------------------------------------
def _reference_shard_map(ring: ShardRing):
    reference = ReferenceRing(bits=ring.bits, replication=1)
    owner = {}
    for shard in range(ring.shards):
        for vnode in range(ring.vnodes):
            name = ring._vnode_name(shard, vnode)
            reference.join(name)
            owner[name] = shard
    return lambda key: owner[
        reference.successor_of(chord_hash(key, ring.bits)).name]


@pytest.mark.parametrize("shards", [2, 4, 7])
def test_shard_ring_matches_the_reference(shards):
    keys = [f"data-{i:05d}" for i in range(5000)]
    ring = ShardRing(shards)
    expected = _reference_shard_map(ring)
    assert [ring.shard_for(k) for k in keys] == [expected(k) for k in keys]
    for other in (shards - 1, shards + 1):
        new_ring = ring.with_shards(other)
        new_expected = _reference_shard_map(new_ring)
        plan = ring.plan_handoff(new_ring, keys)
        moves = [(k, expected(k), new_expected(k)) for k in sorted(keys)
                 if expected(k) != new_expected(k)]
        assert [(m.key, m.src, m.dst) for m in plan.moves] == moves
        assert plan.total_keys == len(keys)
