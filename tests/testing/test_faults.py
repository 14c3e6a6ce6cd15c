"""The deterministic fault-injection harness itself.

Everything else in the fault suite leans on these invariants: the same
seed always yields the same schedule, an armed fault fires exactly where
the schedule says, and an inactive harness costs (and changes) nothing.
"""

import json
import os
import re
import threading
from pathlib import Path

import pytest

from repro.errors import SpecificationError
from repro.testing import faults
from repro.testing.faults import (
    FAULT_KINDS,
    POINT_KINDS,
    Fault,
    FaultInjector,
    FaultSchedule,
    fault_point,
    install,
    uninstall,
    worker_kill_indices,
)

from tests.testing.schedules import seeded_schedule

SEED = int(os.environ.get("REPRO_FAULT_SEED", "20140807"))

SRC = Path(__file__).resolve().parents[2] / "src"


class TestFaultValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SpecificationError):
            Fault(kind="meteor-strike", point="transport.request")

    def test_rejects_unknown_point(self):
        with pytest.raises(SpecificationError):
            Fault(kind="slow", point="no.such.point")

    def test_rejects_kind_the_point_cannot_deliver(self):
        with pytest.raises(SpecificationError):
            Fault(kind="worker-kill", point="journal.append")

    def test_rejects_bad_times_and_delay(self):
        with pytest.raises(SpecificationError):
            Fault(kind="slow", point="server.dispatch", times=0)
        with pytest.raises(SpecificationError):
            Fault(kind="slow", point="server.dispatch", delay=-1)

    def test_round_trips_through_dict(self):
        fault = Fault(
            kind="worker-kill", point="parallel.block", match={"index": 3}
        )
        assert Fault.from_dict(fault.to_dict()) == fault

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecificationError):
            Fault.from_dict(
                {"kind": "slow", "point": "server.dispatch", "blast": 9}
            )


class TestFaultSchedule:
    def test_seeded_is_deterministic(self):
        first = seeded_schedule(SEED)
        second = seeded_schedule(SEED)
        assert first.to_dict() == second.to_dict()
        assert seeded_schedule(SEED + 1).to_dict() != first.to_dict()

    def test_seeded_respects_filters(self):
        schedule = seeded_schedule(SEED, n=8, kinds=("worker-kill",))
        assert all(f.kind == "worker-kill" for f in schedule.faults)
        schedule = seeded_schedule(SEED, n=8, points=("journal.append",))
        assert all(f.point == "journal.append" for f in schedule.faults)

    def test_seeded_rejects_empty_filter(self):
        with pytest.raises(SpecificationError):
            seeded_schedule(SEED, kinds=("slow",), points=("parallel.block",))

    def test_json_round_trip(self, tmp_path):
        schedule = seeded_schedule(SEED, n=5)
        path = tmp_path / "schedule.json"
        path.write_text(schedule.to_json())
        loaded = FaultSchedule.from_path(path)
        assert loaded == schedule
        assert loaded.seed == SEED

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SpecificationError):
            FaultSchedule.from_json("{not json")
        with pytest.raises(SpecificationError):
            FaultSchedule.from_json(json.dumps({"kind": "audit_report"}))

    def test_every_kind_is_reachable_from_a_point(self):
        armable = {kind for kinds in POINT_KINDS.values() for kind in kinds}
        assert armable == set(FAULT_KINDS)

    def test_points_match_the_call_sites_in_src(self):
        """Every injection point named in ``src/`` is registered, and
        every registered point is crossed somewhere: a sweep over
        :data:`POINT_KINDS` tests exactly the points that exist."""
        call = re.compile(r'(?:fault_point|worker_kill_indices)\(\s*"([^"]+)"')
        named = {
            name
            for path in SRC.rglob("*.py")
            for name in call.findall(path.read_text(encoding="utf-8"))
        }
        assert named == set(POINT_KINDS)


class TestFaultInjector:
    def test_inactive_harness_is_a_no_op(self):
        assert faults._ACTIVE is None
        assert fault_point("transport.request") is None
        assert worker_kill_indices() == frozenset()

    def test_connection_reset_fires_at_the_scheduled_crossing(self):
        schedule = FaultSchedule(
            (Fault(kind="connection-reset", point="transport.request", at=2),)
        )
        with FaultInjector(schedule) as injector:
            assert fault_point("transport.request") is None  # crossing 0
            assert fault_point("transport.request") is None  # crossing 1
            with pytest.raises(ConnectionResetError):
                fault_point("transport.request")  # crossing 2
            # times=1: the fault is spent.
            assert fault_point("transport.request") is None
        assert [f["crossing"] for f in injector.fired] == [2]

    def test_match_filter_gates_firing(self):
        schedule = FaultSchedule(
            (
                Fault(
                    kind="connection-reset",
                    point="transport.request",
                    match={"path": "/v1/audits"},
                ),
            )
        )
        with FaultInjector(schedule):
            assert fault_point("transport.request", path="/v1/healthz") is None
            with pytest.raises(ConnectionResetError):
                fault_point("transport.request", path="/v1/audits")

    def test_disk_full_raises_enospc(self):
        schedule = FaultSchedule(
            (Fault(kind="disk-full", point="journal.append"),)
        )
        with FaultInjector(schedule):
            with pytest.raises(OSError) as excinfo:
                fault_point("journal.append")
        assert "disk full" in str(excinfo.value)

    def test_worker_kills_are_consumed_once(self):
        schedule = FaultSchedule(
            (
                Fault(
                    kind="worker-kill",
                    point="parallel.block",
                    match={"index": 2},
                ),
            )
        )
        with FaultInjector(schedule) as injector:
            assert worker_kill_indices() == frozenset({2})
            # Consumed: the inline crash-recovery retry must survive.
            assert worker_kill_indices() == frozenset()
        assert injector.fired[0]["kind"] == "worker-kill"

    def test_one_injector_per_process(self):
        schedule = FaultSchedule(())
        with FaultInjector(schedule):
            with pytest.raises(SpecificationError):
                install(FaultInjector(schedule))
        assert faults._ACTIVE is None

    def test_uninstall_is_idempotent(self):
        uninstall()
        injector = FaultInjector(FaultSchedule(()))
        install(injector)
        uninstall(injector)
        uninstall(injector)
        assert faults._ACTIVE is None

    def test_firing_is_thread_safe(self):
        schedule = FaultSchedule(
            (
                Fault(
                    kind="connection-reset",
                    point="transport.request",
                    at=0,
                    times=5,
                ),
            )
        )
        raised = []

        def cross():
            try:
                fault_point("transport.request")
            except ConnectionResetError:
                raised.append(1)

        with FaultInjector(schedule) as injector:
            threads = [threading.Thread(target=cross) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(raised) == 5  # exactly `times`, no double-fires
        assert len(injector.fired) == 5
