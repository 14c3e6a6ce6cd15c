"""Persistent worker pool: parity, reuse, repair, cancellation (ISSUE 10).

The :class:`~repro.engine.pool.PersistentPool` must be invisible in the
results: pooled audits are bit-identical to serial runs for any worker
count, across interleaved audits of different graphs, worker-side LRU
evictions, adaptive early stopping and injected worker kills.  The pool
only changes the economics — workers stay warm and unpickle each graph
once per residency — which :meth:`PersistentPool.stats` makes
observable and these tests pin.

One module-scoped pool per worker count is shared by most tests here;
that reuse across many unrelated audits *is* the feature under test.
An engine ships a plan to its pool only when the plan's blocks cross
the dispatch gate (:data:`~repro.engine.facade.POOLED_BLOCK_WORK`), so
the plans here are sized to cross it, :func:`sample_through_pool` fails
a parity test whose plan stayed inline, and :class:`TestDispatchGate`
pins the gate itself.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AuditSpec, RGAlgorithm, SIAAuditor, api
from repro.core.componentset import ComponentSets
from repro.depdb import DepDB, NetworkDependency
from repro.engine import AuditEngine, PersistentPool
from repro.engine import pool as pool_module
from repro.engine.cache import compile_cached, structural_hash
from repro.engine.facade import POOLED_BLOCK_WORK
from repro.engine.parallel import (
    cancel_scope,
    map_jobs,
    plan_blocks,
    run_plan_serial,
)
from repro.errors import AnalysisError, AuditCancelled
from repro.testing.faults import Fault, FaultInjector, FaultSchedule
from repro.topology import INTERNET, FatTreeConfig, fat_tree_routes

# Blocks that cross the dispatch gate on every graph below (GRAPH_A:
# 15 events x 4096 rounds), and a plan of four of them, the last short.
BLOCK = 4096
ROUNDS = 3 * BLOCK + 1000
# Generous CI bound — the real latency is one block plus the 0.05 s
# poll; what matters is that cancellation never waits out the plan.
CANCEL_LATENCY_SECONDS = 20.0


def make_graph(
    tag: str, providers: int = 3, shared: int = 2, private: int = 3
):
    sets = {
        f"{tag}-P{i}": [f"{tag}-shared-{j}" for j in range(shared)]
        + [f"{tag}-p{i}-{j}" for j in range(private)]
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
    assert (
        result.top_probability_estimate
        == reference.top_probability_estimate
    )


def serial_reference(graph, rounds, seed, block=BLOCK):
    return AuditEngine(n_workers=1, block_size=block).sample(
        graph, rounds, seed=seed
    )


def sample_through_pool(engine, graph, rounds, **options):
    """``engine.sample``, failing if a fanning-out engine ran it inline.

    A parity test compares pooled with inline results; one whose plan
    fell under the dispatch gate would compare inline with inline.
    """
    if engine.fanout == 1:
        return engine.sample(graph, rounds, **options)
    before = engine.pool.stats()["tasks"]
    result = engine.sample(graph, rounds, **options)
    assert engine.pool.stats()["tasks"] > before, "the plan ran inline"
    return result


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
        serial = serial_reference(GRAPH_A, ROUNDS, seed=11)
        with AuditEngine(n_workers=workers, block_size=BLOCK) as engine:
            owned = sample_through_pool(engine, GRAPH_A, ROUNDS, seed=11)
        shared = sample_through_pool(
            AuditEngine(
                n_workers=workers, block_size=BLOCK, pool=pools(workers)
            ),
            GRAPH_A,
            ROUNDS,
            seed=11,
        )
        assert_same(owned, serial)
        assert_same(shared, serial)

    def test_fresh_single_use_pool_matches_shared_pool(self, pools):
        rounds = 2 * BLOCK + 500
        shared = sample_through_pool(
            AuditEngine(n_workers=2, block_size=BLOCK, pool=pools(2)),
            GRAPH_B,
            rounds,
            seed=23,
        )
        with PersistentPool(2) as fresh_pool:
            fresh = sample_through_pool(
                AuditEngine(n_workers=2, block_size=BLOCK, pool=fresh_pool),
                GRAPH_B,
                rounds,
                seed=23,
            )
        assert_same(fresh, shared)
        assert_same(shared, serial_reference(GRAPH_B, rounds, seed=23))

    def test_interleaved_graphs_through_one_pool(self, pools):
        pool = pools(2)
        engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
        before = pool.stats()
        plan = [(GRAPH_A, 3), (GRAPH_B, 4), (GRAPH_A, 3), (GRAPH_B, 4)]
        for graph, seed in plan:
            result = sample_through_pool(engine, graph, 2 * BLOCK, seed=seed)
            assert_same(
                result, serial_reference(graph, 2 * BLOCK, seed=seed)
            )
        after = pool.stats()
        # Each graph is unpickled and compiled at most once per worker
        # residency; every further block is a warm worker-cache hit.
        assert after["cold_misses"] - before["cold_misses"] <= (
            2 * pool.workers
        )
        assert after["warm_hits"] > before["warm_hits"]

    def test_worker_lru_eviction_keeps_bit_identity(self, monkeypatch):
        # A one-entry worker cache forces an eviction on every graph
        # switch: correctness must not depend on cache residency.
        monkeypatch.setattr("repro.engine.pool.WORKER_CACHE_SIZE", 1)
        with PersistentPool(2) as pool:
            engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
            for graph, seed in [
                (GRAPH_A, 3),
                (GRAPH_B, 4),
                (GRAPH_A, 3),
                (GRAPH_B, 4),
            ]:
                result = sample_through_pool(
                    engine, graph, 2 * BLOCK, seed=seed
                )
                assert_same(
                    result, serial_reference(graph, 2 * BLOCK, seed=seed)
                )
            assert pool.stats()["cold_misses"] >= 2

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        providers=st.integers(min_value=2, max_value=4),
        shared=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=BLOCK + 1, max_value=3 * BLOCK),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_deployments_pooled_equals_serial(
        self, pools, providers, shared, rounds, seed
    ):
        graph = make_graph(f"fuzz-{providers}-{shared}", providers, shared)
        pooled = sample_through_pool(
            AuditEngine(n_workers=2, block_size=BLOCK, pool=pools(2)),
            graph,
            rounds,
            seed=seed,
        )
        assert_same(pooled, serial_reference(graph, rounds, seed=seed))

    def test_adaptive_stop_is_pool_invariant(self, pools):
        serial = AuditEngine(n_workers=1, block_size=BLOCK).sample(
            GRAPH_A, 500_000, seed=3, adaptive=True
        )
        pooled = sample_through_pool(
            AuditEngine(n_workers=2, block_size=BLOCK, pool=pools(2)),
            GRAPH_A,
            500_000,
            seed=3,
            adaptive=True,
        )
        assert serial.rounds == pooled.rounds < 500_000
        assert_same(pooled, serial)
        assert (
            serial.metadata["blocks_observed"]
            == pooled.metadata["blocks_observed"]
        )


# --------------------------------------------------------------------- #
# The dispatch gate
# --------------------------------------------------------------------- #


def three_pod_graph():
    """Topology A's three-way deployment: three pods of the k=16 tree."""
    tree = FatTreeConfig(16)
    servers = ("srv-p0-t0-0", "srv-p5-t3-2", "srv-p11-t6-4")
    depdb = DepDB(
        NetworkDependency(src=server, dst=INTERNET, route=route)
        for server in servers
        for route in fat_tree_routes(tree, server)
    )
    return SIAAuditor(depdb).build_graph(
        AuditSpec(deployment="three-way", servers=servers)
    )


def report_bytes(engine, graph, rounds: int, seed: int) -> str:
    """A sampling audit of ``graph`` through ``engine``, as its bytes."""
    spec = AuditSpec(
        deployment=graph.name,
        servers=graph.children(graph.top),
        algorithm=RGAlgorithm.SAMPLING,
        sampling_rounds=rounds,
        seed=seed,
    )
    audit = SIAAuditor(DepDB(), engine=engine).audit_graph(graph, spec)
    return api.canonical_json(audit.to_dict())


class TestDispatchGate:
    """Which plans a pooled engine ships: the decision, never its timing."""

    def test_pooled_small_shaped_plans_never_touch_the_pool(self):
        # The perf ledger's largest small graph: 4 providers x 5 parts.
        graph = make_graph("small", providers=4, shared=1, private=4)
        assert len(graph) == 22
        with PersistentPool(2) as pool:
            engine = AuditEngine(n_workers=2, block_size=256, pool=pool)
            result = engine.sample(graph, 3 * 256, seed=3)
            assert not pool.started
            assert pool.stats()["tasks"] == 0
        assert "pool" not in result.metadata
        assert_same(result, serial_reference(graph, 3 * 256, 3, block=256))

    def test_k16_three_way_plans_ship_at_256_round_blocks(self, pools):
        graph = three_pod_graph()
        assert len(graph) * 256 >= POOLED_BLOCK_WORK
        engine = AuditEngine(n_workers=2, block_size=256, pool=pools(2))
        result = sample_through_pool(engine, graph, 3 * 256, seed=3)
        assert_same(result, serial_reference(graph, 3 * 256, 3, block=256))

    @pytest.mark.parametrize(
        "shape, block, offset",
        [
            pytest.param((2, 2, 19), 381, -1, id="one-below"),
            pytest.param((2, 1, 6), 1024, 0, id="at"),
        ],
    )
    def test_either_side_of_the_gate_gives_the_same_bytes(
        self, pools, shape, block, offset
    ):
        graph = make_graph(f"edge{offset}", *shape)
        assert len(graph) * block == POOLED_BLOCK_WORK + offset
        pool = pools(2)
        rounds = 3 * block
        pooled = AuditEngine(n_workers=2, block_size=block, pool=pool)
        before = pool.stats()["tasks"]
        data = report_bytes(pooled, graph, rounds, seed=17)
        assert (pool.stats()["tasks"] > before) == (offset == 0)
        inline = AuditEngine(n_workers=1, block_size=block)
        assert data == report_bytes(inline, graph, rounds, seed=17)
        assert_same(
            pooled.sample(graph, rounds, seed=17),
            serial_reference(graph, rounds, 17, block=block),
        )

    def test_a_one_block_plan_handed_to_the_pool_runs_in_a_worker(self):
        # The one plan-size test is the engine's; the pool runs what it
        # is handed.
        def plan():
            return plan_blocks(BLOCK, BLOCK, np.random.SeedSequence(2))

        with PersistentPool(2) as pool:
            outcomes = pool.run_plan(GRAPH_A, plan())
            stats = pool.stats()
        assert stats["warm_hits"] + stats["cold_misses"] == 1
        assert stats["inline_blocks"] == 0
        assert outcomes == run_plan_serial(compile_cached(GRAPH_A), plan())


# --------------------------------------------------------------------- #
# Worker-kill repair
# --------------------------------------------------------------------- #


class TestRepair:
    def test_killed_worker_recovers_and_pool_stays_usable(self):
        serial = serial_reference(GRAPH_A, ROUNDS, seed=5)
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
                killed = engine.sample(GRAPH_A, ROUNDS, seed=5)
            assert injector.fired, "the kill never triggered"
            assert_same(killed, serial)
            stats = pool.stats()
            assert stats["respawns"] >= 1
            assert stats["inline_blocks"] >= 1
            # The respawned pool keeps serving bit-identical results.
            assert_same(
                sample_through_pool(engine, GRAPH_A, ROUNDS, seed=5), serial
            )

    def test_plan_survives_a_retire_before_submit(self, monkeypatch):
        """Another thread retires the executor between this plan's
        ``_ensure_started`` and its first submit: the blocks run inline,
        bit-identically (it used to raise a raw ``RuntimeError``)."""
        serial = serial_reference(GRAPH_A, ROUNDS, seed=5)
        with PersistentPool(2) as pool:
            engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
            monkeypatch.setattr(pool, "_ensure_started", retired_under(pool))
            assert_same(engine.sample(GRAPH_A, ROUNDS, seed=5), serial)
            monkeypatch.undo()
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["inline_blocks"] == ROUNDS // BLOCK + 1
            # The next plan spawns a fresh executor and runs nothing inline.
            assert_same(engine.sample(GRAPH_A, ROUNDS, seed=5), serial)
            assert pool.stats()["inline_blocks"] == ROUNDS // BLOCK + 1

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
        executor = ensure_started()
        pool._retire(executor)
        return executor

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
        reference = serial_reference(GRAPH_WIDE, 2 * BLOCK, seed=7)
        event, timer = _cancel_after(0.3)
        started = time.monotonic()
        try:
            with cancel_scope(event):
                with pytest.raises(AuditCancelled):
                    engine.sample(GRAPH_WIDE, 50_000_000, seed=1)
        finally:
            timer.cancel()
        assert time.monotonic() - started < CANCEL_LATENCY_SECONDS
        follow_up = sample_through_pool(
            AuditEngine(n_workers=2, block_size=BLOCK, pool=pool),
            GRAPH_WIDE,
            2 * BLOCK,
            seed=7,
        )
        assert_same(follow_up, reference)


# --------------------------------------------------------------------- #
# Plumbing: engines, service, keys, lifecycle
# --------------------------------------------------------------------- #


class TestPlumbing:
    def test_worker_cache_is_keyed_by_structural_hash(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_WORKER_CACHE", None)
        pool_module._init_pool_worker(4)
        key = structural_hash(GRAPH_A)
        compiled, warm = pool_module._compiled_for(key, pickle.dumps(GRAPH_A))
        assert warm is False
        # A hit names the graph by its key alone and reads no payload.
        again, warm = pool_module._compiled_for(key, b"")
        assert warm is True
        assert again is compiled
        # A weight is part of the structure, so a reweighted graph
        # compiles into an entry of its own.
        reweighted = GRAPH_A.copy()
        reweighted.set_probability(GRAPH_A.basic_events()[0], 0.9)
        other_key = structural_hash(reweighted)
        assert other_key != key
        _, warm = pool_module._compiled_for(
            other_key, pickle.dumps(reweighted)
        )
        assert warm is False

    def test_pool_stats_surface_in_info_not_in_results(self, pools):
        pool = pools(2)
        engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
        result = sample_through_pool(engine, GRAPH_A, 2 * BLOCK, seed=9)
        # Cumulative pool counters differ between runs; a result keeps
        # only what its own run decided.
        assert "pool" not in result.metadata
        assert engine.info()["pool"]["enabled"] is True
        assert engine.info()["pool"]["workers"] == 2
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
        """A closed pool refuses the plans that reach it; a plan under
        the dispatch gate never reaches it and gets its inline answer."""
        pool = PersistentPool(2)
        engine = AuditEngine(n_workers=2, block_size=BLOCK, pool=pool)
        sample_through_pool(engine, GRAPH_A, 2 * BLOCK, seed=1)
        pool.close()
        with pytest.raises(AnalysisError):
            engine.sample(GRAPH_A, 2 * BLOCK, seed=1)
        small = AuditEngine(n_workers=2, block_size=256, pool=pool)
        assert_same(
            small.sample(GRAPH_A, 3 * 256, seed=1),
            serial_reference(GRAPH_A, 3 * 256, 1, block=256),
        )

    @pytest.mark.parametrize(
        "workers",
        [
            pytest.param(2.5, id="fraction"),
            pytest.param(-1.0, id="minus-one-float"),
            pytest.param("2", id="str"),
            pytest.param(True, id="true"),
        ],
    )
    def test_invalid_worker_counts_rejected(self, workers):
        with pytest.raises(AnalysisError, match="integer"):
            PersistentPool(workers)

    def test_jobs_only_pool_spawns_only_its_workers(self):
        before = set(multiprocessing.active_children())
        with PersistentPool(2) as pool:
            assert pool.map_jobs(_sleep_job, [(0.1,), (0.2,)]) == [0.1, 0.2]
            spawned = set(multiprocessing.active_children()) - before
            assert len(spawned) == 2

    def test_lazy_start(self):
        pool = PersistentPool(4)
        assert not pool.started
        assert pool.stats()["started"] is False
        pool.close()
