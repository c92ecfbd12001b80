"""Unit tests for the Data Catalog and Data Repository services.

``ReferenceCatalog`` is the catalog the re-keyed ``DataCatalogService``
replaced: ``dc.locators`` stored under ``locator.uid`` and every reader of it
a full scan.  A hypothesis state machine drives a pair of each (the second
pair is the shard a routing key migrates to) through the same operations and,
after every one, requires the same *ordered* locators of every datum, the
same ``export_key_now``, ``migration_keys`` and ``data_count``.  It checks
isolation the same way: whatever mutable object a compared call returns, or an
import was handed, is mutated before the next step.
"""

import copy

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule, run_state_machine_as_test)

from repro.core.data import Data, DataStatus, Locator
from repro.core.exceptions import DataNotFoundError
from repro.net.host import Host
from repro.services import data_catalog
from repro.services.data_catalog import DataCatalogService
from repro.services.data_repository import DataRepositoryService
from repro.sim.kernel import Environment
from repro.storage.database import Database, DatabaseEngine
from repro.storage.filesystem import FileContent, LocalFileSystem

from tests.conftest import count_calls, run_process


@pytest.fixture
def catalog(env):
    return DataCatalogService(Database(env))


@pytest.fixture
def repository(env):
    host = Host("service", stable=True)
    return DataRepositoryService(env, host, filesystem=LocalFileSystem(owner="repo"))


class TestDataCatalog:
    def test_register_and_get(self, env, catalog, drive):
        data = Data(name="input.dat", size_mb=3)
        drive(env, catalog.register_data(data))
        fetched = drive(env, catalog.get_data(data.uid))
        assert fetched.name == "input.dat"
        assert catalog.data_count == 1
        assert catalog.requests == 2

    def test_get_missing_raises(self, env, catalog):
        process = env.process(catalog.get_data("no-such-uid"))
        with pytest.raises(DataNotFoundError):
            env.run(until=process)

    def test_find_by_name(self, env, catalog, drive):
        for i in range(3):
            drive(env, catalog.register_data(Data(name="shared.dat")))
        drive(env, catalog.register_data(Data(name="other.dat")))
        matches = drive(env, catalog.find_by_name("shared.dat"))
        assert len(matches) == 3
        assert drive(env, catalog.find_by_name("nothing")) == []

    def test_update_status(self, env, catalog, drive):
        data = Data(name="x")
        drive(env, catalog.register_data(data))
        updated = drive(env, catalog.update_status(data.uid, DataStatus.AVAILABLE))
        assert updated.status is DataStatus.AVAILABLE
        assert catalog.get_data_now(data.uid).status is DataStatus.AVAILABLE

    def test_delete_removes_locators_too(self, env, catalog, drive):
        data = Data(name="x")
        drive(env, catalog.register_data(data))
        drive(env, catalog.add_locator(Locator(data_uid=data.uid, host_name="h",
                                               reference="p")))
        assert len(catalog.locators_for_now(data.uid)) == 1
        assert drive(env, catalog.delete_data(data.uid))
        assert catalog.get_data_now(data.uid) is None
        assert catalog.locators_for_now(data.uid) == []

    def test_locator_listing(self, env, catalog, drive):
        data = Data(name="x")
        drive(env, catalog.register_data(data))
        for host in ("a", "b"):
            drive(env, catalog.add_locator(
                Locator(data_uid=data.uid, host_name=host, reference="p")))
        locators = drive(env, catalog.locators_for(data.uid))
        assert {l.host_name for l in locators} == {"a", "b"}

    def test_key_value_publish_and_lookup(self, env, catalog, drive):
        drive(env, catalog.publish_pair("data-1", "hostA"))
        drive(env, catalog.publish_pair("data-1", "hostB"))
        values = drive(env, catalog.lookup_pair("data-1"))
        assert values == {"hostA", "hostB"}
        assert catalog.lookup_pair_now("data-1") == {"hostA", "hostB"}
        assert drive(env, catalog.lookup_pair("unknown")) == set()

    def test_operations_cost_database_time(self, env, drive):
        engine = DatabaseEngine("hsqldb", 0.01, 0.0)
        catalog = DataCatalogService(Database(env, engine=engine))
        drive(env, catalog.register_data(Data(name="x")))
        assert env.now == pytest.approx(0.01)

    def test_stored_datum_is_isolated_from_the_callers_object(self, catalog):
        data = Data(name="x")
        catalog.register_data_now(data)
        data.status = DataStatus.OBSOLETE
        assert catalog.get_data_now(data.uid).status is DataStatus.CREATED

    def test_lookup_result_is_isolated_from_the_store(self, env, catalog, drive):
        drive(env, catalog.publish_pair("k", "hostA"))
        drive(env, catalog.lookup_pair("k")).add("intruder")
        assert drive(env, catalog.lookup_pair("k")) == {"hostA"}

    def test_keyed_locator_read_enters_no_predicate(self, catalog):
        """A count, not a timing: reading one datum's locators among 500
        calls no lambda of ``data_catalog.py`` (500 under the scan)."""
        uids = [f"u{i}" for i in range(500)]
        for uid in uids:
            catalog.add_locator_now(Locator(data_uid=uid, host_name="h",
                                            reference="p"))
        found, lambdas = count_calls(
            lambda: catalog.locators_for_now(uids[250]),
            lambda code: (code.co_name == "<lambda>"
                          and code.co_filename == data_catalog.__file__))
        assert [l.data_uid for l in found] == [uids[250]]
        assert lambdas == 0

    def test_pair_request_enters_no_copy_function(self, env, catalog, drive):
        """A count, not a timing: with 500 values under one key, a publish,
        a lookup and an export enter no function of ``copy.py`` (three
        ``deepcopy`` walks of the whole set when the record was a ``set``
        behind ``Database._snapshot``)."""
        for i in range(500):
            drive(env, catalog.publish_pair("k", f"host{i}"))

        def request():
            return (drive(env, catalog.publish_pair("k", "late")),
                    drive(env, catalog.lookup_pair("k")),
                    catalog.export_key_now("k")["kv"])

        (published, looked_up, exported), copies = count_calls(
            request, lambda code: code.co_filename == copy.__file__)
        assert len(published) == 501
        assert published == looked_up == exported
        assert copies == 0


# ---------------------------------------------------------------------------
# The reference: the replaced catalog over plain dicts, every reader a scan.
# ---------------------------------------------------------------------------
class ReferenceCatalog:
    def __init__(self):
        self.data = {}
        #: locator.uid -> locator, in insertion order
        self.locators = {}
        self.kv = {}

    def register_data_now(self, data):
        self.data[data.uid] = data

    def delete_data(self, uid):
        removed = self.data.pop(uid, None) is not None
        for loc in self.locators_for_now(uid):
            del self.locators[loc.uid]
        return removed

    @property
    def data_count(self):
        return len(self.data)

    def add_locator_now(self, locator):
        self.locators[locator.uid] = locator

    def locators_for_now(self, data_uid):
        return [l for l in self.locators.values() if l.data_uid == data_uid]

    def publish_pair(self, key, value):
        existing = set(self.kv.get(key) or set())
        existing.add(value)
        self.kv[key] = existing
        return existing

    def lookup_pair(self, key):
        return set(self.kv.get(key, set()))

    def migration_keys(self):
        keys = set(self.data)
        keys.update(self.kv)
        for locator in self.locators.values():
            keys.add(locator.data_uid)
        return sorted(keys)

    def export_key_now(self, key):
        return {
            "data": self.data.get(key),
            "locators": sorted(self.locators_for_now(key),
                               key=lambda l: l.uid),
            "kv": self.kv.get(key),
        }

    def import_key_now(self, key, snapshot):
        self.drop_key_now(key)
        if snapshot.get("data") is not None:
            self.data[key] = snapshot["data"]
        for locator in snapshot.get("locators", ()):
            self.locators[locator.uid] = locator
        if snapshot.get("kv") is not None:
            self.kv[key] = set(snapshot["kv"])

    def drop_key_now(self, key):
        self.data.pop(key, None)
        for locator in self.locators_for_now(key):
            del self.locators[locator.uid]
        self.kv.pop(key, None)


# ---------------------------------------------------------------------------
# The state machine.
# ---------------------------------------------------------------------------
#: Routing keys: four data plus one uid that never gets a datum.
KEYS = [f"u{i}" for i in range(4)] + ["orphan"]
POOL = [Data(name=f"n{i % 2}", uid=uid) for i, uid in enumerate(KEYS[:4])]
#: Three locator uids per key, each on two hosts: re-adding a uid from the
#: other host replaces the locator and must keep its place in the order.
LOCATORS = [Locator(data_uid=key, host_name=host, reference="p",
                    uid=f"{key}-l{i}")
            for key in KEYS for i in range(3) for host in ("a", "b")]

SIDE = st.sampled_from([0, 1])
KEY = st.sampled_from(KEYS)
#: Enough values that a key's record grows over a run.
VALUE = st.sampled_from([f"host{c}" for c in "ABCDEF"])


class CatalogMachine(RuleBasedStateMachine):
    """Every rule applies one operation to both catalogs and compares."""

    catalog_class = DataCatalogService

    @initialize()
    def build(self):
        self.env = Environment()
        self.fast = [self.catalog_class(Database(self.env)) for _ in range(2)]
        self.reference = [ReferenceCatalog() for _ in range(2)]

    @rule(side=SIDE, data=st.sampled_from(POOL))
    def register_data(self, side, data):
        self.fast[side].register_data_now(data)
        self.reference[side].register_data_now(data)

    @rule(side=SIDE, locator=st.sampled_from(LOCATORS))
    def add_locator(self, side, locator):
        self.fast[side].add_locator_now(locator)
        self.reference[side].add_locator_now(locator)

    @rule(side=SIDE, key=KEY)
    def delete_data(self, side, key):
        assert run_process(self.env, self.fast[side].delete_data(key)) \
            == self.reference[side].delete_data(key)

    @rule(side=SIDE, key=KEY, value=VALUE)
    def publish_pair(self, side, key, value):
        published = run_process(self.env,
                                self.fast[side].publish_pair(key, value))
        assert published == self.reference[side].publish_pair(key, value)
        published.add("intruder")

    @rule(side=SIDE, key=KEY)
    def lookup_pair(self, side, key):
        found = run_process(self.env, self.fast[side].lookup_pair(key))
        assert found == self.reference[side].lookup_pair(key)
        found.add("intruder")

    @rule(src=SIDE, key=KEY)
    def copy_key(self, src, key):
        """The rebalance coordinator's export → import onto the other shard."""
        exported = self.fast[src].export_key_now(key)
        assert exported["kv"] is None or isinstance(exported["kv"], frozenset)
        self.fast[1 - src].import_key_now(key, exported)
        self.reference[1 - src].import_key_now(
            key, self.reference[src].export_key_now(key))

    @rule(side=SIDE, key=KEY, values=st.sets(VALUE))
    def import_callers_set(self, side, key, values):
        """A snapshot whose ``"kv"`` is the caller's own mutable set."""
        for catalog in (self.fast[side], self.reference[side]):
            mine = set(values)
            catalog.import_key_now(key, {"kv": mine})
            mine.add("intruder")

    @rule(side=SIDE, key=KEY)
    def drop_key(self, side, key):
        self.fast[side].drop_key_now(key)
        self.reference[side].drop_key_now(key)

    @invariant()
    def same_observables(self):
        for fast, reference in zip(self.fast, self.reference):
            for key in KEYS:
                assert fast.locators_for_now(key) \
                    == reference.locators_for_now(key), key
                assert fast.export_key_now(key) \
                    == reference.export_key_now(key), key
            assert fast.migration_keys() == reference.migration_keys()
            assert fast.data_count == reference.data_count


CatalogMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
TestCatalogAgainstReference = CatalogMachine.TestCase


class _LeakyDeleteCatalog(DataCatalogService):
    """``delete_data`` that leaves the datum's locators behind."""

    def delete_data(self, uid):
        removed = yield from self.database.execute(
            lambda: self.database.raw_delete("dc.data", uid), statements=2)
        return removed


def test_oracle_fails_a_wrong_catalog(hypothesis_own_constants):
    machine = type("Mutant", (CatalogMachine,),
                   {"catalog_class": _LeakyDeleteCatalog})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            machine, settings=settings(max_examples=200, derandomize=True,
                                       database=None, deadline=None,
                                       phases=[Phase.generate],
                                       report_multiple_bugs=False))


class TestDataRepository:
    def test_store_and_retrieve(self, repository):
        content = FileContent.from_seed("payload", 10)
        data = Data.from_content(content)
        locator = repository.store_now(data, content)
        assert locator.permanent
        assert locator.host_name == "service"
        assert repository.has(data.uid)
        assert repository.retrieve_now(data.uid).verify(content)
        assert repository.stored_count == 1
        assert repository.used_mb == pytest.approx(10)

    def test_store_rejects_mismatched_content(self, repository):
        content = FileContent.from_seed("payload", 10)
        data = Data(name="payload", size_mb=99, checksum="bogus")
        with pytest.raises(ValueError):
            repository.store_now(data, content)

    def test_retrieve_missing_raises(self, repository):
        with pytest.raises(DataNotFoundError):
            repository.retrieve_now("missing-uid")
        with pytest.raises(DataNotFoundError):
            repository.endpoint_for("missing-uid")

    def test_delete(self, repository):
        content = FileContent.from_seed("payload", 1)
        data = Data.from_content(content)
        repository.store_now(data, content)
        assert repository.delete_now(data.uid)
        assert not repository.delete_now(data.uid)
        assert not repository.has(data.uid)

    def test_describe_protocol(self, env, repository, drive):
        content = FileContent.from_seed("payload", 1)
        data = Data.from_content(content)
        repository.store_now(data, content)
        description = drive(env, repository.describe_protocol(data.uid, "ftp"))
        assert description.protocol == "ftp"
        assert description.host_name == "service"
        default = drive(env, repository.describe_protocol(data.uid))
        assert default.protocol == repository.default_protocol

    def test_describe_protocol_missing_raises(self, env, repository):
        process = env.process(repository.describe_protocol("nope"))
        with pytest.raises(DataNotFoundError):
            env.run(until=process)

    def test_register_upload(self, repository):
        content = FileContent.from_seed("uploaded", 2)
        data = Data.from_content(content)
        # Simulate an out-of-band upload landing at the repository path.
        repository.filesystem.write(repository.path_for(data), content)
        locator = repository.register_upload(data)
        assert locator.permanent
        assert repository.has(data.uid)

    def test_register_upload_missing_or_corrupt(self, repository):
        content = FileContent.from_seed("uploaded", 2)
        data = Data.from_content(content)
        with pytest.raises(DataNotFoundError):
            repository.register_upload(data)
        repository.filesystem.write(repository.path_for(data), content.corrupted())
        with pytest.raises(ValueError):
            repository.register_upload(data)

    def test_endpoint_for(self, repository):
        content = FileContent.from_seed("payload", 1)
        data = Data.from_content(content)
        repository.store_now(data, content)
        endpoint = repository.endpoint_for(data.uid)
        assert endpoint.read().verify(content)
        assert endpoint.host.name == "service"
