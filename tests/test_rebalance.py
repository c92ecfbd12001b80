"""The elastic ring and the migration overlay: unit + property coverage.

The handoff-plan properties are the load-bearing guarantees of the live
rebalance: an S → S±1 ring transition moves *exactly* the keys whose owner
changes (no gratuitous reshuffling), the volume moved stays within ε of
the consistent-hashing minimum ``K·1/max(S,S')``, and the whole plan is a
pure function of (shard count, vnodes, seed) — two coordinators planning
the same transition agree key for key.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.services.rebalance import MigrationStats, ShardMigration
from repro.services.router import HandoffPlan, KeyMove, ShardRing
from repro.sim.kernel import Environment

common_settings = settings(max_examples=15, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])

keys_strategy = st.lists(
    st.from_regex(r"[a-z0-9\-]{4,24}", fullmatch=True),
    min_size=1, max_size=120, unique=True)


# ---------------------------------------------------------------------------
# Handoff-plan properties
# ---------------------------------------------------------------------------

@common_settings
@given(keys=keys_strategy,
       shards=st.integers(min_value=1, max_value=5),
       grow=st.booleans(),
       seed=st.integers(min_value=0, max_value=3))
def test_handoff_moves_exactly_the_owner_changed_keys(keys, shards, grow,
                                                      seed):
    """plan_handoff's move set equals the brute-force owner diff."""
    new_shards = shards + 1 if grow else max(1, shards - 1)
    old = ShardRing(shards, label="dc", vnodes=32, seed=seed)
    new = old.with_shards(new_shards)
    plan = old.plan_handoff(new, keys)
    expected = {key: (old.shard_for(key), new.shard_for(key))
                for key in keys
                if old.shard_for(key) != new.shard_for(key)}
    got = {move.key: (move.src, move.dst) for move in plan.moves}
    assert got == expected
    assert plan.total_keys == len(keys)
    # Every move crosses shards and lands inside the new shard range.
    for move in plan.moves:
        assert move.src != move.dst
        assert 0 <= move.dst < new_shards


@common_settings
@given(keys=keys_strategy,
       shards=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2))
def test_handoff_is_deterministic_given_the_ring_seed(keys, shards, seed):
    """Two independently built rings plan the identical handoff."""
    plan_a = ShardRing(shards, label="ds", vnodes=32, seed=seed).plan_handoff(
        ShardRing(shards + 1, label="ds", vnodes=32, seed=seed), keys)
    plan_b = ShardRing(shards, label="ds", vnodes=32, seed=seed).plan_handoff(
        ShardRing(shards + 1, label="ds", vnodes=32, seed=seed), keys)
    assert plan_a.moves == plan_b.moves
    assert plan_a.keys_moved == plan_b.keys_moved


@pytest.mark.parametrize("shards,new_shards",
                         [(s, s + 1) for s in range(1, 7)]
                         + [(s, s - 1) for s in range(2, 8)])
def test_handoff_volume_stays_near_the_consistent_hash_minimum(shards,
                                                               new_shards):
    """With enough vnodes the moved volume is within ε of K·1/max(S,S').

    The reference is the *balanced-ring* minimum: a ring may legitimately
    move slightly fewer keys (trading balance for stability), but never
    much more — ε here is 25% at 64 vnodes, the bound the
    ``fabric-rebalance`` BENCH gate holds the live migration to.
    """
    keys = [f"key-{i:05d}" for i in range(4000)]
    old = ShardRing(shards, label="dc", vnodes=64)
    plan = old.plan_handoff(old.with_shards(new_shards), keys)
    assert plan.keys_moved <= plan.theoretical_minimum * 1.25


def test_split_then_merge_moves_the_same_keys_back():
    """A split's moves and the following merge's moves are inverses."""
    keys = [f"uid-{i:05d}" for i in range(2000)]
    ring2 = ShardRing(2, label="dc", vnodes=64)
    ring3 = ring2.with_shards(3)
    split = ring2.plan_handoff(ring3, keys)
    merge = ring3.plan_handoff(ring2, keys)
    assert ({m.key for m in split.moves} == {m.key for m in merge.moves})
    back = {m.key: m.dst for m in merge.moves}
    for move in split.moves:
        assert back[move.key] == move.src


def test_plan_handoff_rejects_foreign_ring_families():
    ring = ShardRing(2, label="dc", vnodes=16)
    with pytest.raises(ValueError):
        ring.plan_handoff(ShardRing(3, label="ds", vnodes=16), ["k"])
    with pytest.raises(ValueError):
        ring.plan_handoff(ShardRing(3, label="dc", vnodes=32), ["k"])
    with pytest.raises(ValueError):
        ring.plan_handoff(ShardRing(3, label="dc", vnodes=16, seed=1), ["k"])


# ---------------------------------------------------------------------------
# The migration overlay's state machine
# ---------------------------------------------------------------------------

def _overlay(keys=("a", "b"), shards=2):
    env = Environment()
    old = {s: ShardRing(shards, label=s, vnodes=16) for s in ("dc", "ds")}
    new = {s: old[s].with_shards(shards + 1) for s in ("dc", "ds")}
    plans = {s: old[s].plan_handoff(new[s], list(keys)) for s in ("dc", "ds")}
    return env, ShardMigration(env, "split", new, plans)


def test_effective_shard_follows_src_until_flip():
    env, migration = _overlay(keys=[f"k{i}" for i in range(200)])
    moves = migration.planned["dc"]
    assert moves, "expected at least one planned move"
    key, move = sorted(moves.items())[0]
    assert migration.effective_shard("dc", key) == move.src
    migration.flip_all()
    assert migration.effective_shard("dc", key) == move.dst


def test_unplanned_keys_route_by_the_new_ring():
    env, migration = _overlay(keys=["only-key"])
    fresh = "some-key-born-mid-migration"
    assert (migration.effective_shard("dc", fresh)
            == migration.new_rings["dc"].shard_for(fresh))


def test_seal_blocks_planned_unflipped_keys_only():
    env, migration = _overlay(keys=[f"k{i}" for i in range(100)])
    key = sorted(migration.planned["dc"])[0]
    assert not migration.is_blocked("dc", key)
    migration.seal()
    assert migration.is_blocked("dc", key)
    assert not migration.is_blocked("dc", "unplanned-key")
    migration.flip_all()
    assert not migration.is_blocked("dc", key)
    migration.unseal()


def test_inflight_tracking_dirties_unflipped_keys_on_exit():
    env, migration = _overlay(keys=[f"k{i}" for i in range(100)])
    key = sorted(migration.planned["ds"])[0]
    token = migration.note_enter("ds", (key, "unplanned"))
    assert migration._inflight == 1           # unplanned key not tracked
    migration.note_exit(token)
    assert migration._inflight == 0
    assert (("ds", key) in migration.take_dirty())
    assert not migration.has_dirty()


def test_mutations_on_non_source_shards_do_not_redirty():
    env, migration = _overlay(keys=[f"k{i}" for i in range(100)])
    key, move = sorted(migration.planned["ds"].items())[0]
    migration.note_dirty_from("ds", move.dst, key)    # dst-side import echo
    assert not migration.has_dirty()
    migration.note_dirty_from("ds", move.src, key)    # genuine source write
    assert migration.has_dirty()


def test_stats_move_ratio():
    stats = MigrationStats(kind="split", old_shards=2, new_shards=3,
                           started_at=0.0)
    stats.keys_planned = {"dc": 30, "ds": 30}
    stats.theoretical_minimum = {"dc": 25.0, "ds": 25.0}
    assert stats.keys_moved == 60
    assert stats.move_ratio == pytest.approx(1.2)
