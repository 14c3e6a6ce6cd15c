"""The worker processes: one long-lived pool, graphs shipped with their tasks.

:class:`PersistentPool` is the only process substrate in the package —
every sampling plan and every fan-out job that leaves the calling
process runs here (which sampling plans leave is the engine's cost
gate, :data:`~repro.engine.facade.POOLED_BLOCK_WORK`).  Spawning
workers and compiling a fault graph are fixed costs, so the pool pays
each of them as rarely as it can:

* **One pool, many audits.**  The executor is spawned lazily on first
  use and reused across audits, fan-out jobs, tenants and threads until
  :meth:`close`.

* **Graphs travel with their tasks.**  The parent pickles the graph
  once per plan, and every block task of the plan refers to that one
  ``bytes`` object:
  ``(key, payload, index, block_rounds, seed)`` plus two scalars.  The
  executor pickles only the ``workers + 1`` calls it queues at a time,
  so the parent holds one copy of the payload however long the plan.

* **Worker-side compiled-graph LRU.**  Each worker process keeps an LRU
  of compiled graphs keyed by structural hash.  A warm task unpickles
  nothing; a miss unpickles the payload it was handed and compiles
  through its process-local :func:`~repro.engine.cache.compile_cached`.

The engine contracts it carries:

* **Bit-identity.**  Blocks are pure functions of
  ``(graph, rounds, seed)`` and outcomes are collected strictly in plan
  order, so pooled results are bit-identical to inline runs for any
  worker count.
* **Cooperative cancellation.**  The collection loop polls the thread's
  :func:`~repro.engine.parallel.cancel_scope` between completions; on
  cancellation the remaining futures are *abandoned* (best-effort
  cancelled, never awaited) — the pool stays up, the caller returns
  within roughly one block's wall-clock.
* **Adaptive early stopping.**  The stopper observes outcomes in plan
  order; speculative blocks past the stopping point are abandoned and
  their results discarded by construction.
* **Self-repair.**  The pool has one failure domain: a worker death,
  which breaks the executor.  The pool retires it (``respawns`` counts
  up), finishes the interrupted plan or job sweep inline in the parent
  — bit-identical, blocks and jobs are pure — and respawns lazily on
  next use.  A thread whose executor another thread retired before it
  could submit finishes inline the same way.

:meth:`stats` exposes the economics — warm/cold worker cache hits, tasks
executed, respawn count, shipped bytes — and is surfaced in audit
metadata and the service ``/v1/healthz`` payload.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Optional, Sequence

import numpy as np

from repro.engine.batch import BlockOutcome, run_block
from repro.engine.cache import LRUCache, compile_cached, structural_hash
from repro.engine.parallel import (
    BlockPlan,
    check_cancelled,
    map_jobs,
    resolve_workers,
    run_plan_serial,
)
from repro.errors import AnalysisError
from repro.testing.faults import KILL_EXIT_CODE, worker_kill_indices

__all__ = ["PersistentPool"]

# How long to wait on the next plan-order future before re-checking the
# thread's cancel scope; bounds the cancellation latency of a served job
# whose blocks run in worker processes.
_CANCEL_POLL_SECONDS = 0.05

# Compiled graphs each worker keeps resident; read when a pool spawns
# its workers.
WORKER_CACHE_SIZE = 32


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #

#: Process-local state of a pool worker: structural hash -> compiled
#: graph, an LRU of ``WORKER_CACHE_SIZE`` entries.
_WORKER_CACHE: Optional[LRUCache] = None


def _init_pool_worker(cache_size: int) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = LRUCache(cache_size)


def _compiled_for(key: str, payload: bytes):
    """Worker-local lookup: ``(compiled, warm)``.

    A hit touches no graph bytes; a miss unpickles ``payload`` and
    compiles it, so a graph is unpickled at most once per worker
    residency.
    """
    compiled = _WORKER_CACHE.get(key)
    if compiled is not None:
        return compiled, True
    compiled = compile_cached(pickle.loads(payload))
    _WORKER_CACHE.put(key, compiled)
    return compiled, False


def _pool_block_task(task: tuple):
    (
        key,
        payload,
        index,
        block_rounds,
        seed,
        default_probability,
        minimise,
        kill,
    ) = task
    if kill:
        # Injected worker crash (repro.testing.faults): die the way a
        # real segfault/OOM kill would; the parent retires the broken
        # executor and finishes the plan inline.
        os._exit(KILL_EXIT_CODE)
    compiled, warm = _compiled_for(key, payload)
    outcome = run_block(
        compiled,
        block_rounds,
        np.random.default_rng(seed),
        default_probability=default_probability,
        minimise=minimise,
    )
    return outcome, warm


def _pool_call_job(task: tuple):
    fn, args = task
    return fn(*args)


def _submit(executor, fn, task):
    """``executor.submit``, reporting a retired executor as a broken one.

    Another thread may retire the executor between ``_ensure_started``
    and this call; its shutdown then refuses new work with a plain
    ``RuntimeError``, which callers repair exactly as a broken pool.
    """
    try:
        return executor.submit(fn, task)
    except RuntimeError as exc:
        raise BrokenExecutor(str(exc)) from exc


def _release_resources(resources: dict) -> None:
    """Finalizer: bring the executor home (never waits)."""
    executor = resources["executor"]
    if executor is not None:
        with contextlib.suppress(Exception):
            executor.shutdown(wait=False, cancel_futures=True)
    resources["executor"] = None


class PersistentPool:
    """Shared process pool with worker-side compiled-graph caching.

    Args:
        n_workers: Worker processes (the
            :func:`~repro.engine.parallel.resolve_workers` convention:
            ``None``/``0``/``1`` degrade to inline execution, ``-1``
            means all CPUs).  Construction is free — processes spawn
            lazily on first parallel use.

    Thread-safe: service worker threads share one pool, and each
    thread's :func:`~repro.engine.parallel.cancel_scope` cancels only
    its own plan.
    """

    def __init__(self, n_workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(n_workers)
        self._lock = threading.Lock()
        self._resources: dict = {"executor": None}
        self._closed = False
        # Counters (guarded by _lock).
        self._plans = 0
        self._tasks = 0
        self._jobs = 0
        self._warm_hits = 0
        self._cold_misses = 0
        self._shipped_bytes = 0
        self._respawns = 0
        self._inline_blocks = 0
        self._finalizer = weakref.finalize(
            self, _release_resources, self._resources
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def started(self) -> bool:
        """Whether worker processes have been spawned yet."""
        with self._lock:
            return self._resources["executor"] is not None

    def _ensure_started(self) -> ProcessPoolExecutor:
        """The live executor, spawning it if there is none."""
        with self._lock:
            if self._closed:
                raise AnalysisError("persistent pool is closed")
            executor = self._resources["executor"]
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_pool_worker,
                    initargs=(WORKER_CACHE_SIZE,),
                )
                self._resources["executor"] = executor
            return executor

    def _retire(self, executor) -> None:
        """Drop a broken executor; the next use spawns a fresh one.

        An executor another thread already retired is left alone.
        """
        with self._lock:
            if self._resources["executor"] is not executor:
                return
            self._resources["executor"] = None
            self._respawns += 1
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down (idempotent, never blocks on stragglers).

        Afterwards every plan or job sweep that would run in worker
        processes raises :class:`~repro.errors.AnalysisError`.
        """
        with self._lock:
            self._closed = True
        self._finalizer()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Ordered collection
    # ------------------------------------------------------------------ #

    def _collect(self, fn, tasks, observe=None) -> tuple[list, bool]:
        """Run ``fn(task)`` per task in the workers, results in order.

        Polls the thread's cancel scope between submissions (submitting
        is itself O(tasks), so a huge plan can be cancelled before its
        last block reaches the queue) and between polls of the next
        future; stops collecting once ``observe(result)`` is true.
        Returns ``(results, broken)``: when the executor breaks, or
        another thread retired it first, it is retired here and the
        caller finishes the tasks past ``results`` inline.
        """
        executor = self._ensure_started()
        futures: list = []
        results: list = []
        try:
            for task in tasks:
                check_cancelled()
                futures.append(_submit(executor, fn, task))
            for future in futures:
                while True:
                    check_cancelled()
                    try:
                        result = future.result(timeout=_CANCEL_POLL_SECONDS)
                    except FuturesTimeoutError:
                        continue
                    break
                results.append(result)
                if observe is not None and observe(result):
                    break
        except BrokenExecutor:
            self._retire(executor)
            return results, True
        finally:
            # Early stop, cancellation, a broken pool or a task bug:
            # abandon the speculative futures — never wait on them;
            # their results are discarded by construction and the pool
            # stays up for the next call.
            for future in futures[len(results):]:
                future.cancel()
        return results, False

    # ------------------------------------------------------------------ #
    # Plan execution
    # ------------------------------------------------------------------ #

    def _run_inline(self, graph, plan, **block_options) -> list[BlockOutcome]:
        """Blocks the parent runs itself (one-worker pools, broken-pool tails)."""
        outcomes = run_plan_serial(
            compile_cached(graph), plan, **block_options
        )
        with self._lock:
            self._tasks += len(outcomes)
            self._inline_blocks += len(outcomes)
        return outcomes

    def run_plan(
        self,
        graph,
        plan,
        *,
        default_probability: float = 0.5,
        minimise: bool = True,
        stopper=None,
    ) -> list[BlockOutcome]:
        """Execute a block plan through the pool, in plan order.

        Same contract as :func:`~repro.engine.parallel.run_plan_serial`
        on the compiled graph — bit-identical outcomes, cancel within
        ~one block, stopper observed in plan order — with the blocks
        computed in worker processes.  Whether a plan is worth shipping
        is the caller's decision (the engine's dispatch gate): a pool
        with more than one worker runs every plan it is handed in its
        workers, one-block plans included.  A worker death mid-plan, or
        an executor another thread retired before this plan could
        submit to it, is repaired here: the remaining blocks (the dead
        worker's included) run inline in the parent, in plan order.
        """
        block_options = {
            "default_probability": default_probability,
            "minimise": minimise,
            "stopper": stopper,
        }
        with self._lock:
            self._plans += 1
        if self.workers <= 1:
            return self._run_inline(graph, plan, **block_options)

        kills = worker_kill_indices("parallel.block")
        key = structural_hash(graph)
        payload = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        tasks = (
            (
                key,
                payload,
                index,
                block_rounds,
                seed,
                default_probability,
                minimise,
                index in kills,
            )
            for index, (block_rounds, seed) in enumerate(
                zip(plan.rounds, plan.seeds)
            )
        )

        def observe(result) -> bool:
            outcome, warm = result
            with self._lock:
                self._tasks += 1
                self._shipped_bytes += len(payload)
                if warm:
                    self._warm_hits += 1
                else:
                    self._cold_misses += 1
            return stopper is not None and stopper.observe(outcome)

        results, broken = self._collect(_pool_block_task, tasks, observe)
        outcomes = [outcome for outcome, _ in results]
        if broken:
            done = len(outcomes)
            tail = BlockPlan(plan.rounds[done:], plan.seeds[done:])
            outcomes.extend(self._run_inline(graph, tail, **block_options))
        return outcomes

    # ------------------------------------------------------------------ #
    # Generic job fan-out
    # ------------------------------------------------------------------ #

    def map_jobs(self, fn: Callable, argument_tuples: Sequence[tuple]) -> list:
        """Run ``fn(*args)`` per tuple in the workers, results in order.

        The multi-process half of
        :func:`~repro.engine.parallel.map_jobs`, which decides whether
        a sweep is worth fanning out: same ordering, cancel polling
        between completions, and broken- or retired-pool repair
        (remaining jobs run inline in the parent — job functions are
        pure, so results are unchanged).
        """
        jobs = list(argument_tuples)
        results, broken = self._collect(
            _pool_call_job, ((fn, args) for args in jobs)
        )
        if broken:
            results.extend(map_jobs(fn, jobs[len(results):]))
        with self._lock:
            self._jobs += len(results)
        return results

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Observable pool economics (audit metadata, ``/v1/healthz``).

        ``warm_hits``/``cold_misses`` count worker-side compiled-graph
        cache outcomes per block task; ``shipped_bytes`` is the graph
        payload bytes sent with every collected block task (the payload
        rides along on warm hits too, unread); ``inline_blocks`` counts
        blocks the parent ran itself: broken-pool repairs and plans
        handed to a one-worker pool, never the plans an engine's
        dispatch gate keeps inline (those do not reach the pool at all).
        """
        with self._lock:
            total = self._warm_hits + self._cold_misses
            return {
                "enabled": True,
                "workers": self.workers,
                "started": self._resources["executor"] is not None,
                "closed": self._closed,
                "plans": self._plans,
                "tasks": self._tasks,
                "jobs": self._jobs,
                "warm_hits": self._warm_hits,
                "cold_misses": self._cold_misses,
                "warm_hit_rate": (self._warm_hits / total) if total else 0.0,
                "shipped_bytes": self._shipped_bytes,
                "respawns": self._respawns,
                "inline_blocks": self._inline_blocks,
            }
