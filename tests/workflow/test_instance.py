"""Instance state machines and role management."""

import sys
import threading

import pytest

from repro.core import datamodel
from repro.db import Database
from repro.errors import EnactmentError, WorkflowError
from repro.workflow import ProcessDefinition, UpdateTable, seq
from repro.workflow.instance import ActivityInstance, ProcessInstance


@pytest.fixture
def deployed(db, engine):
    db.execute("CREATE TABLE t (v INTEGER)")
    definition = ProcessDefinition("p", seq(UpdateTable("u", "DELETE FROM t")))
    engine.deploy(definition)
    return engine


class TestProcessInstance:
    def test_transitions(self, db, deployed):
        execution = deployed.start("p")
        instance = execution.instance
        assert instance.is_running()
        assert instance.start_time is not None
        instance.complete()
        assert instance.is_completed()
        assert instance.end_time > instance.start_time

    def test_illegal_transition(self, db, deployed):
        execution = deployed.start("p")
        execution.instance.complete()
        with pytest.raises(EnactmentError, match="illegal status transition"):
            execution.instance.complete()

    def test_missing_instance(self, db, deployed):
        ghost = ProcessInstance(db, 9999)
        with pytest.raises(EnactmentError, match="does not exist"):
            ghost.row()

    def test_activity_instances_listing(self, db, deployed):
        execution = deployed.run("p")
        rows = execution.instance.activity_instances()
        assert len(rows) == 1
        assert rows[0]["status"] == datamodel.COMPLETED


class TestActivityInstance:
    def test_full_lifecycle_recorded(self, db, deployed):
        execution = deployed.run("p")
        row = db.query("SELECT * FROM ediflow_activity_instance")[0]
        assert row["status"] == datamodel.COMPLETED
        assert row["start"] < row["end"]
        assert row["process_instance_id"] == execution.id

    def test_assign_to_user(self, db, deployed):
        execution = deployed.start("p")
        aid = deployed.activity_id("p", "u")
        instance_id = deployed.allocator.next_id(datamodel.T_ACTIVITY_INSTANCE)
        db.insert(
            datamodel.T_ACTIVITY_INSTANCE,
            {
                "id": instance_id,
                "activity_id": aid,
                "process_instance_id": execution.id,
                "status": datamodel.NOT_STARTED,
            },
        )
        instance = ActivityInstance(db, instance_id)
        user_id = deployed.roles.ensure_user("bob")
        instance.assign_to(user_id)
        assert instance.row()["user_id"] == user_id
        instance.start()
        instance.complete()


class TestRoles:
    def test_group_crud(self, engine):
        gid = engine.roles.create_group("analysts")
        assert engine.roles.group_id("analysts") == gid
        assert engine.roles.ensure_group("analysts") == gid
        assert engine.roles.group_id("ghost") is None

    def test_user_crud(self, engine):
        uid = engine.roles.create_user("ann", password="pw")
        assert engine.roles.user_id("ann") == uid
        assert engine.roles.ensure_user("ann") == uid

    def test_membership(self, engine):
        gid = engine.roles.create_group("g")
        uid = engine.roles.create_user("u")
        engine.roles.add_to_group(uid, gid)
        engine.roles.add_to_group(uid, gid)  # idempotent
        assert engine.roles.groups_of(uid) == {gid}
        assert engine.roles.members_of(gid) == {uid}

    def test_check_assignment(self, engine):
        gid = engine.roles.create_group("g")
        uid = engine.roles.create_user("u")
        with pytest.raises(WorkflowError):
            engine.roles.check_assignment(uid, gid)
        engine.roles.add_to_group(uid, gid)
        engine.roles.check_assignment(uid, gid)  # no raise
        engine.roles.check_assignment(uid, None)  # unconstrained


class TestDataModel:
    def test_core_tables_installed(self, engine, db):
        for table in datamodel.CORE_TABLES:
            assert db.has_table(table)

    def test_install_idempotent(self, db, engine):
        datamodel.install_core_schema(db)  # second call: no error

    def test_id_allocator_seeds_from_existing(self, db, engine):
        db.insert(datamodel.T_GROUP, {"id": 41, "name": "existing"})
        allocator = datamodel.IdAllocator(db)
        assert allocator.next_id(datamodel.T_GROUP) == 42
        assert allocator.next_id(datamodel.T_GROUP) == 43

    def test_id_allocators_on_one_database_share_its_counters(self, db, engine):
        first, second = datamodel.IdAllocator(db), datamodel.IdAllocator(db)
        ids = [
            allocator.next_id(datamodel.T_VISUALIZATION)
            for allocator in (first, second, first, second)
        ]
        assert ids == list(range(ids[0], ids[0] + 4))
        # Another database keeps counters of its own.
        other = Database()
        datamodel.install_core_schema(other)
        assert datamodel.IdAllocator(other).next_id(datamodel.T_VISUALIZATION) == 1

    def test_concurrent_allocators_never_repeat_an_id(self, db, engine):
        allocators = (datamodel.IdAllocator(db), datamodel.IdAllocator(db))
        drawn = [[] for _ in range(4)]
        start = threading.Barrier(4)

        def draw(worker):
            allocator = allocators[worker % 2]
            start.wait()
            for _round in range(10 * 1000 + 10):
                drawn[worker].append(allocator.next_id(datamodel.T_VISUALIZATION))

        threads = [threading.Thread(target=draw, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = [i for worker in drawn for i in worker]
        assert len(ids) == 4 * (10 * 1000 + 10)
        assert len(set(ids)) == len(ids)

    def test_provenance_helpers(self, db, engine):
        from repro.db import TID

        db.execute("CREATE TABLE app (v INTEGER)")
        row = db.insert("app", {"v": 1})
        datamodel.record_provenance(db, "app", row[TID], activity_instance_id=7)
        records = datamodel.provenance_of(db, "app", row[TID])
        assert records[0]["activity_instance_id"] == 7
        assert records[0]["relation"] == "createdBy"
        assert datamodel.provenance_of(db, "app", 999) == []

    def test_deletion_table_name(self):
        assert datamodel.deletion_table_name("votes") == "votes_deleted"
