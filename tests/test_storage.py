"""Unit tests for the storage substrate (database, persistence, filesystem)."""

import uuid
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from repro.sim import ids
from repro.storage.database import (
    ConnectionPool,
    Database,
    DatabaseEngine,
    EmbeddedSQLEngine,
    NetworkedSQLEngine,
)
from repro.storage import filesystem
from repro.storage.filesystem import FileContent, LocalFileSystem, StorageFullError
from repro.storage.persistence import new_auid

from tests.conftest import count_calls


class TestEngines:
    def test_profiles(self):
        mysql = NetworkedSQLEngine()
        hsql = EmbeddedSQLEngine()
        assert mysql.connection_cost_s > hsql.connection_cost_s
        assert mysql.operation_cost_s > hsql.operation_cost_s

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            NetworkedSQLEngine(operation_cost_s=-1)


class TestDatabaseFunctional:
    def test_raw_insert_get_delete(self, env):
        db = Database(env)
        db.raw_upsert("t", "k1", {"x": 1})
        assert db.raw_get("t", "k1") == {"x": 1}
        assert db.size("t") == 1
        assert db.raw_delete("t", "k1")
        assert not db.raw_delete("t", "k1")
        assert db.raw_get("t", "k1") is None

    def test_upsert_overwrites(self, env):
        db = Database(env)
        db.raw_upsert("t", "k", 1)
        db.raw_upsert("t", "k", 2)
        assert db.raw_get("t", "k") == 2

    def test_query_with_predicate(self, env):
        db = Database(env)
        for i in range(10):
            db.raw_upsert("nums", str(i), i)
        evens = db.raw_query("nums", lambda v: v % 2 == 0)
        assert sorted(evens) == [0, 2, 4, 6, 8]
        assert len(db.raw_query("nums")) == 10

    def test_snapshot_isolation(self, env):
        db = Database(env)
        obj = {"nested": [1, 2, 3]}
        db.raw_upsert("t", "k", obj)
        obj["nested"].append(4)
        assert db.raw_get("t", "k") == {"nested": [1, 2, 3]}
        db.raw_get("t", "k")["nested"].append(5)
        assert db.raw_get("t", "k") == {"nested": [1, 2, 3]}


class TestDatabaseCosts:
    def test_operation_pays_engine_costs_without_pool(self, env, drive):
        engine = DatabaseEngine("hsqldb", 0.1, 0.05)
        db = Database(env, engine=engine)
        drive(env, db.execute(lambda: db.raw_upsert("t", "k", 1)))
        assert env.now == pytest.approx(0.15)
        assert db.operations == 1

    def test_pool_amortises_connection_cost(self, env, drive):
        engine = DatabaseEngine("mysql", 0.1, 1.0)
        pool = ConnectionPool(env, engine)
        db = Database(env, engine=engine, pool=pool)

        def client():
            for i in range(3):
                yield from db.execute(lambda: db.raw_upsert("t", f"k{i}", i))

        drive(env, client())
        # One connection opened once (1.0) + three operations (0.3).
        assert env.now == pytest.approx(1.3)
        assert pool.connections_opened == 1

    def test_database_serialises_concurrent_statements(self, env):
        engine = DatabaseEngine("hsqldb", 0.1, 0.0)
        db = Database(env, engine=engine)

        def client(i):
            yield from db.execute(lambda: db.raw_upsert("t", f"k{i}", i))

        procs = [env.process(client(i)) for i in range(5)]
        env.run(until=env.all_of(procs))
        assert env.now == pytest.approx(0.5)

    def test_statement_multiplier(self, env, drive):
        engine = DatabaseEngine("hsqldb", 0.1, 0.0)
        db = Database(env, engine=engine)
        drive(env, db.execute(lambda: None, statements=4))
        assert env.now == pytest.approx(0.4)

    def test_invalid_statements_rejected(self, env):
        db = Database(env)
        with pytest.raises(ValueError):
            next(db.execute(lambda: None, statements=0))


class TestPersistence:
    def test_auid_unique(self):
        auids = {new_auid(label) for label in ("data", "locator", "")
                 for _ in range(100)}
        assert len(auids) == 300

    @given(label=st.text(), n=st.integers(min_value=0, max_value=2 ** 64))
    @example(label="", n=0)
    @example(label="données-データ", n=7)
    def test_auid_is_the_uuid5_of_label_and_sequence(self, label, n):
        namespace = uuid.UUID("8c6b7f2e-bd3e-4c5a-9e6d-2b1f0a7c4d5e")
        with mock.patch.object(ids, "auids", iter([n])):
            auid = new_auid(label)
        assert auid == str(uuid.uuid5(namespace, f"{label}:{n}"))

    def test_auid_builds_no_uuid_objects(self):
        _auid, entered = count_calls(
            lambda: new_auid("data"),
            lambda code: code.co_filename == uuid.__file__)
        assert entered == 0

    def test_auid_deterministic_with_label_after_reset(self):
        ids.rewind()
        first = [new_auid("x") for _ in range(3)]
        ids.rewind()
        second = [new_auid("x") for _ in range(3)]
        assert first == second


class TestFileContent:
    def test_from_seed_is_deterministic(self):
        a = FileContent.from_seed("f.bin", 10)
        b = FileContent.from_seed("f.bin", 10)
        assert a.checksum == b.checksum
        assert a.verify(b)

    def test_different_seed_different_checksum(self):
        a = FileContent.from_seed("f.bin", 10, seed="one")
        b = FileContent.from_seed("f.bin", 10, seed="two")
        assert not a.verify(b)

    def test_from_bytes(self):
        content = FileContent.from_bytes("x.txt", b"hello world")
        assert content.size_mb == pytest.approx(11 / (1024 * 1024))
        assert content.payload == b"hello world"

    def test_corrupted_copy_detected(self):
        content = FileContent.from_seed("f.bin", 10)
        assert not content.verify(content.corrupted())

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FileContent("f", -1, "abc")


class TestLocalFileSystem:
    def test_write_read_delete(self):
        fs = LocalFileSystem()
        content = FileContent.from_seed("a.bin", 5)
        fs.write("dir/a.bin", content)
        assert fs.exists("dir/a.bin")
        assert "dir/a.bin" in fs
        assert fs.read("dir/a.bin").verify(content)
        assert fs.delete("dir/a.bin")
        assert not fs.delete("dir/a.bin")
        with pytest.raises(FileNotFoundError):
            fs.read("dir/a.bin")

    def test_capacity_enforced(self):
        fs = LocalFileSystem(capacity_mb=10)
        fs.write("a", FileContent.from_seed("a", 6))
        with pytest.raises(StorageFullError):
            fs.write("b", FileContent.from_seed("b", 6))
        assert fs.used_mb == pytest.approx(6)
        assert fs.free_mb == pytest.approx(4)
        # Exactly the free space fits.
        fs.write("c", FileContent.from_seed("c", 4))
        assert fs.free_mb == pytest.approx(0)

    def test_write_does_not_re_sum_the_files(self):
        """A count, not a timing: the 500th write enters no generator
        expression of ``filesystem.py`` (one step per stored file when
        ``used_mb`` re-summed them on each capacity check)."""
        fs = LocalFileSystem(capacity_mb=1000)
        for i in range(499):
            fs.write(f"f{i}", FileContent.from_seed(f"f{i}", 1))
        last = FileContent.from_seed("f499", 1)
        _, steps = count_calls(
            lambda: fs.write("f499", last),
            lambda code: (code.co_name == "<genexpr>"
                          and code.co_filename == filesystem.__file__))
        assert len(fs) == 500 and fs.used_mb == pytest.approx(500)
        assert steps == 0

    def test_overwrite_counts_delta(self):
        fs = LocalFileSystem(capacity_mb=10)
        fs.write("a", FileContent.from_seed("a", 8))
        # Overwriting with a smaller file must succeed.
        fs.write("a", FileContent.from_seed("a-small", 2))
        assert fs.used_mb == pytest.approx(2)

    def test_purge(self):
        fs = LocalFileSystem()
        for i in range(4):
            fs.write(f"f{i}", FileContent.from_seed(f"f{i}", 1))
        assert len(fs) == 4
        assert fs.purge() == 4
        assert len(fs) == 0

    def test_list_paths_sorted(self):
        fs = LocalFileSystem()
        for name in ("b", "a", "c"):
            fs.write(name, FileContent.from_seed(name, 1))
        assert fs.list_paths() == ["a", "b", "c"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LocalFileSystem(capacity_mb=0)
