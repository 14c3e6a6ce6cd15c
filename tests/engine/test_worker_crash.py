"""Worker-crash recovery: a dead pool worker never changes results.

An injected ``worker-kill`` fault makes one sampling worker ``_exit``
mid-plan — breaking the pool's executor — and the parent finishes the
remaining blocks inline.  The merged outcome must be bit-identical to
an undisturbed serial run, for any worker count: that is the
determinism contract crash recovery leans on.
"""

import os

import numpy as np
import pytest

from repro.engine import PersistentPool
from repro.engine.batch import merge_block_outcomes
from repro.engine.cache import compile_cached
from repro.engine.parallel import plan_blocks, run_plan_serial
from repro.testing.faults import Fault, FaultInjector, FaultSchedule

from tests.testing.schedules import seeded_schedule

SEED = int(os.environ.get("REPRO_FAULT_SEED", "20140807"))


def fresh_plan(seed=5, rounds=2000, block_size=256):
    return plan_blocks(rounds, block_size, np.random.SeedSequence(seed))


def fingerprint(outcomes):
    result = merge_block_outcomes(outcomes, minimised=True)
    return (
        result.rounds,
        result.top_failures,
        tuple(sorted(map(tuple, map(sorted, result.risk_groups)))),
    )


def kill_block(index):
    return FaultSchedule(
        (
            Fault(
                kind="worker-kill",
                point="parallel.block",
                match={"index": index},
            ),
        )
    )


@pytest.fixture
def reference(deep_graph):
    outcomes = run_plan_serial(compile_cached(deep_graph), fresh_plan())
    return fingerprint(outcomes)


class TestWorkerCrashRecovery:
    def test_killed_worker_is_recovered_bit_identically(
        self, deep_graph, reference
    ):
        with PersistentPool(2) as pool:
            with FaultInjector(kill_block(2)) as injector:
                outcomes = pool.run_plan(deep_graph, fresh_plan())
            stats = pool.stats()
        assert injector.fired, "the kill never triggered"
        assert fingerprint(outcomes) == reference
        assert stats["respawns"] == 1
        assert stats["inline_blocks"] >= 1

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_recovery_is_identical_for_any_worker_count(
        self, deep_graph, reference, workers
    ):
        schedule = seeded_schedule(SEED, n=2, kinds=("worker-kill",))
        with PersistentPool(workers) as pool:
            with FaultInjector(schedule) as injector:
                outcomes = pool.run_plan(deep_graph, fresh_plan())
        # One worker means inline: there is no process to kill.
        assert bool(injector.fired) == (workers > 1)
        assert fingerprint(outcomes) == reference

    def test_first_block_kill_runs_whole_plan_inline(
        self, deep_graph, reference
    ):
        plan = fresh_plan()
        with PersistentPool(2) as pool:
            with FaultInjector(kill_block(0)):
                outcomes = pool.run_plan(deep_graph, plan)
            stats = pool.stats()
        assert fingerprint(outcomes) == reference
        # Collection is in plan order, so nothing a surviving worker
        # finished past the dead block 0 is kept.
        assert stats["inline_blocks"] == len(plan)
        assert stats["warm_hits"] + stats["cold_misses"] == 0

    def test_no_faults_means_no_recovery_path(self, deep_graph, reference):
        with PersistentPool(2) as pool:
            outcomes = pool.run_plan(deep_graph, fresh_plan())
            stats = pool.stats()
        assert fingerprint(outcomes) == reference
        assert stats["respawns"] == 0
        assert stats["inline_blocks"] == 0
