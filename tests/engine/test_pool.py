"""Persistent worker pool: parity, reuse, repair, cancellation (ISSUE 10).

The :class:`~repro.engine.pool.PersistentPool` must be invisible in the
results: pooled audits are bit-identical to serial runs for any worker
count, across interleaved audits of different graphs, worker-side LRU
evictions, adaptive early stopping, injected worker kills and a dead
graph-store manager.  The pool only changes the economics —
graphs ship once, workers stay warm — which :meth:`PersistentPool.stats`
makes observable and these tests pin.

One module-scoped pool per worker count is shared by most tests here;
that reuse across many unrelated audits *is* the feature under test.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FailureSampler
from repro.core.componentset import ComponentSets
from repro.engine import AuditEngine, PersistentPool
from repro.engine.parallel import cancel_scope, map_jobs
from repro.engine.pool import task_key
from repro.errors import AnalysisError, AuditCancelled
from repro.testing.faults import Fault, FaultInjector, FaultSchedule

BLOCK = 256
# Generous CI bound — the real latency is one block plus the 0.05 s
# poll; what matters is that cancellation never waits out the plan.
CANCEL_LATENCY_SECONDS = 20.0


def make_graph(tag: str, providers: int = 3, shared: int = 2):
    sets = {
        f"{tag}-P{i}": [f"{tag}-shared-{j}" for j in range(shared)]
        + [f"{tag}-p{i}-{j}" for j in range(3)]
        for i in range(providers)
    }
    return ComponentSets.from_mapping(sets).to_fault_graph(tag)


GRAPH_A = make_graph("alpha")
GRAPH_B = make_graph("beta", providers=4, shared=1)
# Wide enough that a 50M-round plan far outlasts the cancel bound.
GRAPH_WIDE = make_graph("wide", providers=6, shared=4)


def assert_same(result, reference) -> None:
    assert result.risk_groups == reference.risk_groups
    assert result.top_failures == reference.top_failures
    assert result.unique_failure_sets == reference.unique_failure_sets
    assert (
        result.top_probability_estimate
        == reference.top_probability_estimate
    )


def serial_reference(graph, rounds, seed):
    return FailureSampler(graph, seed=seed, batch_size=BLOCK).run(rounds)


@pytest.fixture(scope="module")
def pools():
    """Lazily constructed shared pools, one per worker count."""
    created: dict[int, PersistentPool] = {}

    def get(workers: int) -> PersistentPool:
        if workers not in created:
            created[workers] = PersistentPool(workers)
        return created[workers]

    yield get
    for pool in created.values():
        pool.close()


# --------------------------------------------------------------------- #
# Bit-identity
# --------------------------------------------------------------------- #


class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_owned_shared_and_serial_agree(self, pools, workers):
        serial = serial_reference(GRAPH_A, 3000, seed=11)
        with AuditEngine(n_workers=workers, block_size=BLOCK) as engine:
            owned = engine.sample(GRAPH_A, 3000, seed=11)
        shared = AuditEngine(
            n_workers=workers, block_size=BLOCK, pool=pools(workers)
        ).sample(GRAPH_A, 3000, seed=11)
        assert_same(owned, serial)
        assert_same(shared, serial)

    def test_fresh_single_use_pool_matches_shared_pool(self, pools):
        shared = AuditEngine(
            n_workers=2, block_size=BLOCK, pool=pools(2)
        ).sample(GRAPH_B, 2500, seed=23)
        with PersistentPool(2) as fresh_pool:
            fresh = AuditEngine(
                n_workers=2, block_size=BLOCK, pool=fresh_pool
            ).sample(GRAPH_B, 2500, seed=23)
        assert_same(fresh, shared)
        assert_same(shared, serial_reference(GRAPH_B, 2500, seed=23))

    def test_interleaved_graphs_through_one_pool(self, pools):
        pool = pools(2)
        engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
        before = pool.stats()
        plan = [(GRAPH_A, 3), (GRAPH_B, 4), (GRAPH_A, 3), (GRAPH_B, 4)]
        for graph, seed in plan:
            result = engine.sample(graph, 2000, seed=seed)
            assert_same(result, serial_reference(graph, 2000, seed=seed))
        after = pool.stats()
        # Each graph ships to each worker at most once; every further
        # block is a warm worker-cache hit.
        assert after["cold_misses"] - before["cold_misses"] <= (
            2 * pool.workers
        )
        assert after["warm_hits"] > before["warm_hits"]
        assert after["published_graphs"] >= 2

    def test_worker_lru_eviction_keeps_bit_identity(self):
        # A one-entry worker cache forces an eviction on every graph
        # switch: correctness must not depend on cache residency.
        with PersistentPool(2, worker_cache_size=1) as pool:
            engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
            for graph, seed in [
                (GRAPH_A, 3),
                (GRAPH_B, 4),
                (GRAPH_A, 3),
                (GRAPH_B, 4),
            ]:
                result = engine.sample(graph, 2000, seed=seed)
                assert_same(result, serial_reference(graph, 2000, seed=seed))
            assert pool.stats()["cold_misses"] >= 2

    def test_store_eviction_republishes_on_demand(self):
        with PersistentPool(2, store_size=1) as pool:
            engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
            for graph, seed in [(GRAPH_A, 3), (GRAPH_B, 4), (GRAPH_A, 3)]:
                result = engine.sample(graph, 2000, seed=seed)
                assert_same(result, serial_reference(graph, 2000, seed=seed))
            assert pool.stats()["published_graphs"] == 1

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        providers=st.integers(min_value=2, max_value=4),
        shared=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=500, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_deployments_pooled_equals_serial(
        self, pools, providers, shared, rounds, seed
    ):
        graph = make_graph(f"fuzz-{providers}-{shared}", providers, shared)
        pooled = AuditEngine(
            n_workers=2, block_size=BLOCK, pool=pools(2)
        ).sample(graph, rounds, seed=seed)
        assert_same(pooled, serial_reference(graph, rounds, seed=seed))

    def test_adaptive_stop_is_pool_invariant(self, pools):
        serial = AuditEngine(n_workers=1, block_size=BLOCK).sample(
            GRAPH_A, 500_000, seed=3, adaptive=True
        )
        pooled = AuditEngine(
            n_workers=2, block_size=BLOCK, pool=pools(2)
        ).sample(GRAPH_A, 500_000, seed=3, adaptive=True)
        assert serial.rounds == pooled.rounds < 500_000
        assert_same(pooled, serial)
        assert (
            serial.metadata["blocks_observed"]
            == pooled.metadata["blocks_observed"]
        )


# --------------------------------------------------------------------- #
# Worker-kill repair
# --------------------------------------------------------------------- #


class TestRepair:
    def test_killed_worker_recovers_and_pool_stays_usable(self):
        serial = serial_reference(GRAPH_A, 4000, seed=5)
        with PersistentPool(2) as pool:
            engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
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
                killed = engine.sample(GRAPH_A, 4000, seed=5)
            assert injector.fired, "the kill never triggered"
            assert_same(killed, serial)
            stats = pool.stats()
            assert stats["respawns"] >= 1
            assert stats["inline_blocks"] >= 1
            # The respawned pool keeps serving bit-identical results.
            assert_same(engine.sample(GRAPH_A, 4000, seed=5), serial)


    @pytest.mark.parametrize("when", ["after-publish", "between-plans"])
    def test_dead_manager_recovers_and_pool_stays_usable(
        self, monkeypatch, when
    ):
        """The graph store's manager process is a failure domain too.

        Killed right after the graph is published, the workers' pulls
        fail mid-plan; killed between plans, the parent's next publish
        does.  Either way the plan finishes inline, bit-identically,
        and the pool respawns a manager for the plan after it.
        """
        serial = serial_reference(GRAPH_A, 4000, seed=5)

        def kill_manager(pool):
            process = pool._resources["manager"]._process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            assert not process.is_alive()

        with PersistentPool(2) as pool:
            engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
            if when == "between-plans":
                assert_same(
                    engine.sample(GRAPH_B, 2000, seed=4),
                    serial_reference(GRAPH_B, 2000, seed=4),
                )
                kill_manager(pool)
            else:
                publish = pool._publish

                def publish_then_die(*args):
                    publish(*args)
                    kill_manager(pool)

                monkeypatch.setattr(pool, "_publish", publish_then_die)
            assert_same(engine.sample(GRAPH_A, 4000, seed=5), serial)
            monkeypatch.undo()
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["inline_blocks"] == 4000 // BLOCK + 1
            assert stats["published_graphs"] == 0
            assert not pool._pins, "the interrupted plan leaked its pin"
            # A second plan on the same pool: fresh manager, fresh
            # workers, graphs republished, nothing run inline.
            assert_same(engine.sample(GRAPH_A, 4000, seed=5), serial)
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["inline_blocks"] == 4000 // BLOCK + 1
            assert stats["published_graphs"] == 1

    def test_failed_publish_releases_its_pin(self):
        # Regression: the pin used to be taken before the try/finally
        # that releases it, so a publish that raised leaked it forever.
        pool = PersistentPool(2)
        engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
        pool.close()
        with pytest.raises(AnalysisError):
            engine.sample(GRAPH_A, 2000, seed=1)
        assert not pool._pins

    def test_plan_survives_a_retire_before_submit(self, monkeypatch):
        """Another thread retires the executor between this plan's
        ``_ensure_started`` and its first submit: the blocks run inline,
        bit-identically (it used to raise a raw ``RuntimeError``)."""
        serial = serial_reference(GRAPH_A, 4000, seed=5)
        with PersistentPool(2) as pool:
            engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
            monkeypatch.setattr(pool, "_ensure_started", retired_under(pool))
            assert_same(engine.sample(GRAPH_A, 4000, seed=5), serial)
            monkeypatch.undo()
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["inline_blocks"] == 4000 // BLOCK + 1
            assert not pool._pins
            # The next plan spawns a fresh executor and runs nothing inline.
            assert_same(engine.sample(GRAPH_A, 4000, seed=5), serial)
            assert pool.stats()["inline_blocks"] == 4000 // BLOCK + 1

    def test_map_jobs_survives_a_retire_before_submit(self, monkeypatch):
        jobs = [(value, os.getpid()) for value in range(6)]
        with PersistentPool(2) as pool:
            monkeypatch.setattr(pool, "_ensure_started", retired_under(pool))
            # Inline in the parent, where the job does not die.
            doubled = pool.map_jobs(_double_or_die_in_worker, jobs)
            monkeypatch.undo()
            assert doubled == [0, 2, 4, 6, 8, 10]
            assert pool.stats()["respawns"] == 1
            assert pool.stats()["jobs"] == 6
            assert pool.map_jobs(_sleep_job, [(0.0,), (0.0,)]) == [0.0, 0.0]

    def test_map_jobs_repairs_a_broken_pool(self):
        parent = os.getpid()
        jobs = [(value, parent) for value in range(6)]
        with PersistentPool(2) as pool:
            doubled = pool.map_jobs(_double_or_die_in_worker, jobs)
            assert doubled == [0, 2, 4, 6, 8, 10]
            assert pool.stats()["respawns"] == 1
            assert pool.stats()["jobs"] == 6
            # The respawned executor serves the next sweep normally.
            assert pool.map_jobs(_sleep_job, [(0.0,), (0.0,)]) == [0.0, 0.0]
            assert pool.stats()["respawns"] == 1


def retired_under(pool):
    """``pool._ensure_started`` as seen by a thread that loses a race:
    another thread's repair retires the executor just after this one
    got it, before anything was submitted."""
    ensure_started = pool._ensure_started

    def ensure_then_lose_the_race():
        executor, store = ensure_started()
        pool._retire(executor)
        return executor, store

    return ensure_then_lose_the_race


def _double_or_die_in_worker(value: int, parent_pid: int) -> int:
    """Pure for the caller, fatal for any worker process that runs it."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return 2 * value


# --------------------------------------------------------------------- #
# Cancellation
# --------------------------------------------------------------------- #


def _sleep_job(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _cancel_after(delay: float):
    event = threading.Event()
    timer = threading.Timer(delay, event.set)
    timer.start()
    return event, timer


class TestCancellation:
    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
    def test_map_jobs_honours_cancel_scope(self, pools, workers):
        # Regression (ISSUE 10 satellite): map_jobs used to hand the
        # whole batch to Executor.map and only return once every job
        # had run; ~15 s of queued sleep must now cancel within the
        # block-latency bound — between jobs inline, between polls of
        # the next future through the pool.
        pool = pools(workers)
        event, timer = _cancel_after(0.3)
        started = time.monotonic()
        try:
            with cancel_scope(event):
                with pytest.raises(AuditCancelled):
                    map_jobs(_sleep_job, [(1.5,)] * 10, pool)
        finally:
            timer.cancel()
        assert time.monotonic() - started < CANCEL_LATENCY_SECONDS
        # Abandoned futures never poison later calls.
        assert map_jobs(_sleep_job, [(0.0,), (0.0,)], pool) == [0.0, 0.0]

    def test_pooled_sample_cancels_and_pool_survives(self, pools):
        pool = pools(2)
        engine = AuditEngine(n_workers=2, pool=pool)
        reference = serial_reference(GRAPH_WIDE, 2000, seed=7)
        event, timer = _cancel_after(0.3)
        started = time.monotonic()
        try:
            with cancel_scope(event):
                with pytest.raises(AuditCancelled):
                    engine.sample(GRAPH_WIDE, 50_000_000, seed=1)
        finally:
            timer.cancel()
        assert time.monotonic() - started < CANCEL_LATENCY_SECONDS
        follow_up = AuditEngine(
            n_workers=2, block_size=BLOCK, pool=pool
        ).sample(GRAPH_WIDE, 2000, seed=7)
        assert_same(follow_up, reference)


# --------------------------------------------------------------------- #
# Plumbing: engines, service, keys, lifecycle
# --------------------------------------------------------------------- #


class TestPlumbing:
    def test_task_key_separates_weight_vectors(self):
        base = task_key(GRAPH_A)
        assert task_key(GRAPH_A) == base
        assert task_key(GRAPH_A, [0.1, 0.2]) != base
        assert task_key(GRAPH_A, [0.1, 0.2]) == task_key(GRAPH_A, [0.1, 0.2])
        assert task_key(GRAPH_A, [0.1, 0.2]) != task_key(GRAPH_A, [0.2, 0.1])

    def test_pool_stats_surface_in_metadata_and_info(self, pools):
        pool = pools(2)
        engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
        result = engine.sample(GRAPH_A, 2000, seed=9)
        assert result.metadata["pool"]["enabled"] is True
        assert result.metadata["pool"]["workers"] == 2
        assert engine.info()["pool"]["enabled"] is True
        inline = AuditEngine(n_workers=1, block_size=BLOCK)
        assert inline.info()["pool"] == {"enabled": False}

    def test_multi_worker_engine_owns_a_lazy_pool(self):
        with AuditEngine(n_workers=2) as engine:
            owned = engine.pool
            assert owned.workers == engine.fanout == 2
            assert not owned.started
        assert owned.stats()["closed"] is True

    def test_injected_pool_stays_the_callers(self, pools):
        pool = pools(2)
        with AuditEngine(n_workers=2, pool=pool) as engine:
            assert engine.pool is pool
        assert pool.stats()["closed"] is False

    def test_serial_engines_never_grow_a_pool(self):
        engine = AuditEngine(n_workers=1)
        assert engine.pool is None
        assert engine.fanout == 1

    def test_job_manager_leaves_an_injected_engine_open(self):
        from repro.service.jobs import JobManager

        with AuditEngine(n_workers=2) as engine:
            manager = JobManager(engine, workers=0, resume=False)
            assert manager.engine is engine
            assert manager.stats()["pool"]["enabled"] is True
            manager.shutdown(drain=False)
            assert engine.pool.stats()["closed"] is False
        assert engine.pool.stats()["closed"] is True

    def test_job_manager_closes_the_engine_it_built(self, monkeypatch):
        from repro.service import jobs

        built = []

        class Recording(AuditEngine):
            def close(self):
                built.append(self)
                super().close()

        monkeypatch.setattr(jobs, "AuditEngine", Recording)
        manager = jobs.JobManager(workers=0, resume=False)
        manager.shutdown(drain=False)
        assert built == [manager.engine]

    def test_closed_pool_refuses_new_plans(self):
        pool = PersistentPool(2)
        engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
        engine.sample(GRAPH_A, 2000, seed=1)
        pool.close()
        with pytest.raises(AnalysisError):
            engine.sample(GRAPH_A, 2000, seed=1)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(AnalysisError):
            PersistentPool(2, worker_cache_size=0)
        with pytest.raises(AnalysisError):
            PersistentPool(2, store_size=0)

    def test_lazy_start(self):
        pool = PersistentPool(4)
        assert not pool.started
        assert pool.stats()["started"] is False
        pool.close()
