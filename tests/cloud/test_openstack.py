"""Unit tests for the OpenStack-like scheduler (§6.2.2)."""

import pytest

from repro.cloud import Host, Scheduler
from repro.errors import PlacementError


def make_scheduler(seed=0) -> Scheduler:
    return Scheduler([Host(f"h{i}", capacity=2) for i in range(3)], seed=seed)


class TestScheduler:
    def test_least_loaded_placement(self):
        sched = make_scheduler()
        sched.pin("vm0", "h0")
        sched.pin("vm1", "h1")
        # h2 is the unique least-loaded host.
        assert sched.place("vm2").host == "h2"

    def test_tie_break_is_random_but_seeded(self):
        choices_a = [Scheduler([Host("x", 2), Host("y", 2)], seed=s).place("v").host
                     for s in range(20)]
        assert set(choices_a) == {"x", "y"}  # both get chosen across seeds
        again = [Scheduler([Host("x", 2), Host("y", 2)], seed=s).place("v").host
                 for s in range(20)]
        assert choices_a == again  # deterministic per seed

    def test_capacity_respected(self):
        sched = Scheduler([Host("only", capacity=1)], seed=0)
        sched.place("vm0")
        with pytest.raises(PlacementError, match="no capacity"):
            sched.place("vm1")

    def test_colocation_hazard_reproduced(self):
        """The §6.2.2 situation: an empty server attracts both replicas."""
        sched = Scheduler([Host(f"s{i}", capacity=4) for i in range(4)], seed=0)
        for vm, host in (
            ("a", "s0"), ("b", "s0"), ("c", "s2"),
            ("d", "s2"), ("e", "s3"), ("f", "s3"),
        ):
            sched.pin(vm, host)
        first = sched.place("riak1").host
        second = sched.place("riak2").host
        assert first == second == "s1"

    def test_pin_validations(self):
        sched = make_scheduler()
        sched.pin("vm0", "h0")
        with pytest.raises(PlacementError, match="already placed"):
            sched.pin("vm0", "h1")
        with pytest.raises(PlacementError, match="unknown host"):
            sched.pin("vm1", "ghost")

    def test_pin_respects_capacity(self):
        sched = Scheduler([Host("h", 1)], seed=0)
        sched.pin("a", "h")
        with pytest.raises(PlacementError, match="full"):
            sched.pin("b", "h")

    def test_host_validation(self):
        with pytest.raises(PlacementError):
            Host("h", capacity=0)
        with pytest.raises(PlacementError):
            Scheduler([], seed=0)
        with pytest.raises(PlacementError, match="duplicate"):
            Scheduler([Host("h", 1), Host("h", 1)], seed=0)
