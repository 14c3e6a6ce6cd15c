"""The worker processes: one long-lived pool, content-addressed graphs.

:class:`PersistentPool` is the only process substrate in the package —
every sampling plan and every fan-out job that leaves the calling
process runs here (which sampling plans leave is the engine's cost
gate, :data:`~repro.engine.facade.POOLED_BLOCK_WORK`).  Spawning
workers, shipping a fault graph and compiling it are fixed costs that
dwarf the sampling itself on the small-to-medium graphs a multi-tenant
audit server mostly sees, so the pool pays each of them as rarely as it
can:

* **One pool, many audits.**  The executor (and a companion
  ``multiprocessing`` manager process holding the shared graph store)
  is spawned lazily on first use and reused across audits, fan-out
  jobs, tenants and threads until :meth:`close`.

* **Content-addressed graph shipping.**  A graph travels to the pool at
  most once: the parent pickles ``(graph, probabilities)`` a single
  time and publishes it in the shared store under its structural hash
  (:func:`~repro.engine.cache.structural_hash`, extended with a weights
  digest when per-event probabilities are in play).  Steady-state tasks
  carry only ``(key, index, block_rounds, seed)`` plus two scalars.

* **Worker-side compiled-graph LRU.**  Each worker process keeps an LRU
  of compiled graphs keyed by the same hash.  A warm task touches no
  graph bytes at all; a cache miss triggers one on-demand pull from the
  store (at most once per ``(worker, hash)`` while the entry stays
  resident), after which the worker compiles through its process-local
  :func:`~repro.engine.cache.compile_cached`.

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
* **Self-repair.**  A worker death breaks the executor, a manager death
  takes the graph store with it.  Either way the pool retires what
  broke (``respawns`` counts up), finishes the interrupted plan inline
  in the parent — bit-identical, the blocks are pure — and respawns
  lazily on next use.  The store outlives a lost executor; a lost
  store takes its executor along, because those workers can no longer
  pull from it.  A thread whose executor another thread retired
  before it could submit finishes inline the same way.

:meth:`stats` exposes the economics — warm/cold worker cache hits, tasks
executed, respawn count, shipped bytes — and is surfaced in audit
metadata and the service ``/v1/healthz`` payload.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import pickle
import threading
import weakref
from collections import Counter, OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Optional, Sequence

import numpy as np

from repro.engine.batch import BlockOutcome, run_block
from repro.engine.cache import compile_cached, structural_hash
from repro.engine.parallel import (
    BlockPlan,
    check_cancelled,
    map_jobs,
    resolve_workers,
    run_plan_serial,
)
from repro.errors import AnalysisError
from repro.testing.faults import KILL_EXIT_CODE, worker_kill_indices

__all__ = ["PersistentPool", "task_key"]

# How long to wait on the next plan-order future before re-checking the
# thread's cancel scope; bounds the cancellation latency of a served job
# whose blocks run in worker processes.
_CANCEL_POLL_SECONDS = 0.05

# What a manager proxy raises, in the parent or in a worker, once the
# manager process holding the graph store is gone (the refused, reset
# and broken-pipe errors are all ConnectionError).
_STORE_LOST = (ConnectionError, EOFError)


def task_key(graph, probabilities: Optional[Sequence[float]] = None) -> str:
    """Content address of a shipped graph payload.

    The structural hash identifies everything sampling depends on except
    the optional explicit per-event weights vector, which is folded in
    as a short digest — two audits of one graph with different weight
    vectors must not share a worker cache entry.
    """
    key = structural_hash(graph)
    if probabilities is not None:
        digest = hashlib.sha256()
        for value in probabilities:
            digest.update(repr(value).encode())
            digest.update(b"\0")
        key = f"{key}:w{digest.hexdigest()[:16]}"
    return key


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #

# Process-local state of a pool worker: the shared-store proxy plus the
# LRU of pulled-and-compiled graphs.  Workers receive graphs on demand,
# never at init time.
_POOL_STATE: dict = {}


def _init_pool_worker(store, cache_size: int) -> None:
    _POOL_STATE["store"] = store
    _POOL_STATE["cache"] = OrderedDict()
    _POOL_STATE["cache_size"] = cache_size


def _compiled_for(key: str):
    """Worker-local lookup: ``key -> (compiled, probabilities)``.

    Returns ``(compiled, probabilities, warm, pulled_bytes)``; a miss
    pulls the payload from the shared store (one IPC round trip), so a
    graph's bytes reach a given worker at most once per residency.
    """
    cache: OrderedDict = _POOL_STATE["cache"]
    entry = cache.get(key)
    if entry is not None:
        cache.move_to_end(key)
        compiled, probabilities = entry
        return compiled, probabilities, True, 0
    payload = _POOL_STATE["store"][key]
    graph, probabilities = pickle.loads(payload)
    compiled = compile_cached(graph)
    cache[key] = (compiled, probabilities)
    while len(cache) > _POOL_STATE["cache_size"]:
        cache.popitem(last=False)
    return compiled, probabilities, False, len(payload)


def _pool_block_task(task: tuple):
    key, index, block_rounds, seed, default_probability, minimise, kill = task
    if kill:
        # Injected worker crash (repro.testing.faults): die the way a
        # real segfault/OOM kill would; the parent retires the broken
        # executor and finishes the plan inline.
        os._exit(KILL_EXIT_CODE)
    compiled, probabilities, warm, pulled = _compiled_for(key)
    outcome = run_block(
        compiled,
        block_rounds,
        np.random.default_rng(seed),
        probabilities=probabilities,
        default_probability=default_probability,
        minimise=minimise,
    )
    return outcome, warm, pulled


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
    """Finalizer: bring the executor and manager home (never waits)."""
    executor = resources.get("executor")
    if executor is not None:
        with contextlib.suppress(Exception):
            executor.shutdown(wait=False, cancel_futures=True)
    manager = resources.get("manager")
    if manager is not None:
        with contextlib.suppress(Exception):
            manager.shutdown()
    resources["executor"] = None
    resources["manager"] = None


class PersistentPool:
    """Shared process pool with worker-side compiled-graph caching.

    Args:
        n_workers: Worker processes (the
            :func:`~repro.engine.parallel.resolve_workers` convention:
            ``None``/``0``/``1`` degrade to inline execution, ``-1``
            means all CPUs).  Construction is free — processes and the
            store manager spawn lazily on first parallel use.
        worker_cache_size: Compiled graphs each worker keeps resident.
        store_size: Published payloads the shared store keeps (LRU;
            entries pinned by in-flight plans are never evicted).

    Thread-safe: service worker threads share one pool, and each
    thread's :func:`~repro.engine.parallel.cancel_scope` cancels only
    its own plan.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        worker_cache_size: int = 32,
        store_size: int = 128,
    ) -> None:
        if worker_cache_size < 1:
            raise AnalysisError(
                f"worker_cache_size must be >= 1, got {worker_cache_size}"
            )
        if store_size < 1:
            raise AnalysisError(f"store_size must be >= 1, got {store_size}")
        self.workers = resolve_workers(n_workers)
        self.worker_cache_size = worker_cache_size
        self.store_size = store_size
        self._lock = threading.Lock()
        self._resources: dict = {"executor": None, "manager": None}
        self._store = None  # manager-dict proxy once started
        self._published: OrderedDict[str, int] = OrderedDict()
        self._pins: Counter = Counter()
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

    def _ensure_started(self) -> tuple:
        """The live ``(executor, store)`` pair, spawning what is missing.

        Callers keep the pair together: those workers pull from that
        store, even if another thread retires either in the meantime.
        """
        with self._lock:
            if self._closed:
                raise AnalysisError("persistent pool is closed")
            if self._resources["manager"] is None:
                manager = multiprocessing.Manager()
                self._resources["manager"] = manager
                self._store = manager.dict()
            executor = self._resources["executor"]
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_pool_worker,
                    initargs=(self._store, self.worker_cache_size),
                )
                self._resources["executor"] = executor
            return executor, self._store

    def _retire(self, executor, store_lost: bool = False) -> None:
        """Drop a broken executor; the next use spawns a fresh one.

        After a worker death the manager (and with it every published
        graph) survives, so repaired workers re-pull graphs on demand
        instead of forcing a re-publish.  With ``store_lost`` the
        manager died: it goes too, together with the published index,
        and graphs republish into a fresh store on next use.  A pair
        another thread already retired is left alone.
        """
        manager = None
        with self._lock:
            if self._resources["executor"] is not executor:
                return
            self._resources["executor"] = None
            self._respawns += 1
            if store_lost:
                manager = self._resources["manager"]
                self._resources["manager"] = None
                self._store = None
                self._published.clear()
        # A broken executor has already failed every queued block.  One
        # that only lost its store may be serving other threads' plans:
        # their warm blocks still finish, their cold ones report the
        # loss themselves.
        executor.shutdown(wait=False, cancel_futures=not store_lost)
        if manager is not None:
            with contextlib.suppress(Exception):
                manager.shutdown()

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
    # Graph publication
    # ------------------------------------------------------------------ #

    def _publish(self, store, key: str, graph, probabilities) -> None:
        """Put ``key``'s payload into ``store``, shipping it at most once.

        The caller holds a pin on ``key``.  Raises one of
        ``_STORE_LOST`` when the manager behind ``store`` is gone.
        """
        with self._lock:
            if self._store is store and key in self._published:
                self._published.move_to_end(key)
                return
        payload = pickle.dumps(
            (
                graph,
                None if probabilities is None else list(probabilities),
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        store[key] = payload
        evicted: list[str] = []
        with self._lock:
            if self._store is not store:
                return  # retired meanwhile; its index is gone with it
            if key not in self._published:
                self._published[key] = len(payload)
                self._shipped_bytes += len(payload)
            self._published.move_to_end(key)
            while len(self._published) > self.store_size:
                victim = next(
                    (
                        k
                        for k in self._published
                        if self._pins[k] == 0 and k != key
                    ),
                    None,
                )
                if victim is None:
                    break
                del self._published[victim]
                evicted.append(victim)
        for victim in evicted:
            with contextlib.suppress(KeyError):
                del store[victim]

    def _unpin(self, key: str) -> None:
        with self._lock:
            self._pins[key] -= 1
            if self._pins[key] <= 0:
                del self._pins[key]

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
        probabilities: Optional[Sequence[float]] = None,
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
        workers, one-block plans included.  A worker or manager death
        mid-plan, or an executor another thread retired before this
        plan could submit to it, is repaired here: the remaining blocks
        (the dead worker's included) run inline in the parent, in plan
        order.
        """
        block_options = {
            "probabilities": probabilities,
            "default_probability": default_probability,
            "minimise": minimise,
            "stopper": stopper,
        }
        with self._lock:
            self._plans += 1
        if self.workers <= 1:
            return self._run_inline(graph, plan, **block_options)

        kills = worker_kill_indices("parallel.block")
        key = task_key(graph, probabilities)
        with self._lock:
            self._pins[key] += 1
        try:
            executor, store = self._ensure_started()
            futures: list = []
            outcomes: list[BlockOutcome] = []
            broken = False
            try:
                self._publish(store, key, graph, probabilities)
                # Submission is itself O(plan length); poll cancellation
                # here too so a huge plan can be cancelled before its
                # last block ever reaches the queue.
                for index, (block_rounds, seed) in enumerate(
                    zip(plan.rounds, plan.seeds)
                ):
                    check_cancelled()
                    task = (
                        key,
                        index,
                        block_rounds,
                        seed,
                        default_probability,
                        minimise,
                        index in kills,
                    )
                    futures.append(_submit(executor, _pool_block_task, task))
                for future in futures:
                    while True:
                        check_cancelled()
                        try:
                            outcome, warm, pulled = future.result(
                                timeout=_CANCEL_POLL_SECONDS
                            )
                        except FuturesTimeoutError:
                            continue
                        break
                    with self._lock:
                        self._tasks += 1
                        if warm:
                            self._warm_hits += 1
                        else:
                            self._cold_misses += 1
                            self._shipped_bytes += pulled
                    outcomes.append(outcome)
                    if stopper is not None and stopper.observe(outcome):
                        break
            except BrokenExecutor:
                broken = True
                self._retire(executor)
            except _STORE_LOST:
                broken = True
                self._retire(executor, store_lost=True)
            finally:
                # Early stop, cancellation, a broken pool or a task bug:
                # abandon the speculative futures — never wait on them;
                # their results are discarded by construction and the
                # pool stays up for the next plan.
                self._abandon(futures[len(outcomes):])
            if broken:
                done = len(outcomes)
                tail = BlockPlan(plan.rounds[done:], plan.seeds[done:])
                outcomes.extend(
                    self._run_inline(graph, tail, **block_options)
                )
            return outcomes
        finally:
            self._unpin(key)

    @staticmethod
    def _abandon(futures) -> None:
        for future in futures:
            future.cancel()

    # ------------------------------------------------------------------ #
    # Generic job fan-out
    # ------------------------------------------------------------------ #

    def map_jobs(self, fn: Callable, argument_tuples: Sequence[tuple]) -> list:
        """Run ``fn(*args)`` per tuple through the pool, results in order.

        The multi-process half of
        :func:`~repro.engine.parallel.map_jobs`: same ordering, cancel
        polling between completions, and broken- or retired-pool repair
        (remaining jobs run inline in the parent — job functions are
        pure, so results are unchanged).
        """
        jobs = list(argument_tuples)
        if self.workers <= 1 or len(jobs) <= 1:
            results = map_jobs(fn, jobs)
        else:
            executor, _ = self._ensure_started()
            futures: list = []
            results = []
            broken = False
            try:
                for args in jobs:
                    check_cancelled()
                    futures.append(
                        _submit(executor, _pool_call_job, (fn, args))
                    )
                for future in futures:
                    while True:
                        check_cancelled()
                        try:
                            result = future.result(
                                timeout=_CANCEL_POLL_SECONDS
                            )
                        except FuturesTimeoutError:
                            continue
                        break
                    results.append(result)
            except BrokenExecutor:
                broken = True
                self._retire(executor)
            finally:
                self._abandon(futures[len(results):])
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
        cache outcomes per block task; ``shipped_bytes`` is the total
        graph traffic (one publish per pool, one pull per (worker,
        graph) residency); ``inline_blocks`` counts blocks the parent
        ran itself: broken-pool repairs and plans handed to a one-worker
        pool, never the plans an engine's dispatch gate keeps inline
        (those do not reach the pool at all).
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
                "published_graphs": len(self._published),
                "respawns": self._respawns,
                "inline_blocks": self._inline_blocks,
            }
