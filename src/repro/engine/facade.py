"""The :class:`AuditEngine` facade — cached, batched, parallel auditing.

One engine object owns the four scaling mechanisms of this package and
hands them to the rest of the system behind a small API:

* a :class:`~repro.engine.cache.GraphCache` so repeated audits stop
  recompiling identical graphs;
* the one plan → run → merge of failure sampling
  (:func:`~repro.engine.parallel.plan_blocks`, inline or through the
  pool, :func:`~repro.engine.batch.merge_block_outcomes`) — bit-identical
  results either way;
* the decision *where* a block or a fan-out job runs: an engine with
  more than one worker owns a :class:`~repro.engine.pool.PersistentPool`
  (or shares an injected one) and ships it the sampling plans whose
  blocks repay the dispatch (:data:`POOLED_BLOCK_WORK`); everything
  else runs inline;
* the content-addressed *audit result cache* behind
  :meth:`AuditEngine.audit_built` — and so behind ``audit_spec``,
  ``audit_store`` and ``audit_delta`` — which serves a repeat audit only
  where it is bit-identical to a cold recomputation.

Consumers: :class:`~repro.engine.audit.SIAAuditor` (pass ``engine=``),
:func:`repro.api.execute_request` and the audit service (graph cache and
sampling only, never the result cache), ``indaas watch`` and the
``indaas audit-many`` CLI verb.  :class:`FailureSampler`, the
§4.1.2 sampler of one graph with a run counter of its own, is a front
over :meth:`AuditEngine.sample`.
"""

from __future__ import annotations

import os
import weakref
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.events import check_count, check_seed
from repro.core.faultgraph import FaultGraph
from repro.core.report import AuditReport, DeploymentAudit
from repro.core.spec import AuditSpec, RGAlgorithm
from repro.engine.adaptive import AdaptiveConfig, AdaptiveStopper
from repro.engine.audit import SIAAuditor
from repro.engine.batch import SamplingResult, merge_block_outcomes
from repro.engine.cache import (
    GraphCache,
    LRUCache,
    default_cache,
    structural_hash,
)
from repro.engine.incremental import (
    DeltaAuditReport,
    DeploymentChange,
    SpecSetDelta,
    StoreAuditOutcome,
    _spec_audit_key,
    _spec_store_key,
    graph_delta,
)
from repro.engine.parallel import (
    cancel_scope,
    check_cancelled,
    map_jobs,
    plan_blocks,
    resolve_workers,
    run_plan_serial,
)
from repro.engine.pool import PersistentPool
from repro.engine.specset import (
    AuditJob,
    SpecSource,
    load_report_jobs,
    load_spec_set,
)
from repro.errors import AnalysisError, SpecificationError

__all__ = [
    "AuditEngine",
    "FailureSampler",
    "cancel_scope",
    "check_cancelled",
]

#: Deployment audits every engine's result cache keeps (LRU).
MAX_CACHED_AUDITS = 1024

#: Work per block, in node-rounds (graph events × block rounds), from
#: which a pooled engine ships a plan to its workers.  Below it the
#: dispatch costs more than the blocks it would spread, so the plan runs
#: inline; the sweep behind the number is in DESIGN.md "Where things run".
POOLED_BLOCK_WORK = 16_384


def _seedless(spec: AuditSpec) -> bool:
    """Whether ``spec`` samples from fresh OS entropy, so no two cold
    runs of it agree and no cache may answer it."""
    return spec.algorithm is RGAlgorithm.SAMPLING and spec.seed is None


def _has_dead_referent(index: tuple) -> bool:
    """Whether an ``audit_store`` index key's store or weigher is gone."""
    store, _content, _spec, weigher = index
    return store() is None or (weigher is not None and weigher() is None)


def _run_audit_job(job: AuditJob, block_size: int) -> DeploymentAudit:
    """The one fan-out kernel: audit ``job`` in whatever process runs it.

    Module-level so it survives pickling into pool processes.  Every
    call audits at the dispatching engine's block size (the block plan,
    hence the result, depends on it) and compiles through the process's
    :func:`~repro.engine.cache.default_cache`, so one worker compiles a
    structure once however many jobs it serves.
    """
    engine = AuditEngine(block_size=block_size, cache=default_cache())
    return job.auditor(engine).audit_deployment(job.spec)


class AuditEngine:
    """Facade over graph caching, batched sampling, process fan-out and
    the audit result cache.

    Args:
        n_workers: Worker processes for sampling blocks and audit jobs.
            ``None``/``0``/``1`` run everything inline; a negative value
            means "all cores".  The worker count never changes results —
            only wall-clock time (see DESIGN.md on deterministic
            sharding).
        block_size: Sampling rounds per block; the unit of work shipped
            to workers and the granularity of seeded streams.
        cache: Optional shared :class:`GraphCache` (a private one is
            created otherwise).
        pool: A shared :class:`~repro.engine.pool.PersistentPool` to
            run on (the caller keeps ownership).  Without one, an
            engine with more than one worker owns a pool of its own —
            processes spawn lazily on first parallel use and
            :meth:`close` (or the ``with`` block) brings them home.

    Only sampling plans that cross the dispatch gate (see
    :meth:`_run_plan`) reach the pool.  A closed pool refuses those with
    :class:`~repro.errors.AnalysisError`; a plan under the gate never
    reaches it and still gets its inline answer.

    The result cache (:data:`MAX_CACHED_AUDITS` deployment audits)
    always lives in this process, whatever the worker count.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        block_size: int = 4096,
        cache: Optional[GraphCache] = None,
        pool: Optional[PersistentPool] = None,
    ) -> None:
        check_count("block_size", block_size)
        self.n_workers = resolve_workers(n_workers)
        self.block_size = int(block_size)
        self.cache = cache if cache is not None else GraphCache()
        self._owns_pool = pool is None and self.n_workers > 1
        self.pool: Optional[PersistentPool] = (
            PersistentPool(self.n_workers) if self._owns_pool else pool
        )
        self._audits = LRUCache(MAX_CACHED_AUDITS)
        # audit_store's index into ``_audits``: (store, content hash,
        # spec, weigher) -> structural hash, the store and weigher held
        # by weak reference.  Their callbacks only note a death here;
        # the next audit_store drops the dead entries.
        self._stores = LRUCache(MAX_CACHED_AUDITS)
        self._dead: list = []

    def close(self) -> None:
        """Shut down the worker pool this engine owns, if any."""
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "AuditEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    def compile(self, graph):
        """Cached array compilation of ``graph``."""
        return self.cache.compile(graph)

    # ------------------------------------------------------------------ #
    # Where work runs
    # ------------------------------------------------------------------ #

    @property
    def fanout(self) -> int:
        """Processes a job sweep, or a block plan worth shipping, spreads
        over (1: inline)."""
        return self.pool.workers if self.pool is not None else 1

    def map_jobs(self, fn, argument_tuples: Sequence[tuple]) -> list:
        """Run ``fn(*args)`` per tuple, in order, wherever this engine runs work.

        With :attr:`fanout` above one the jobs go through the pool, so
        ``fn`` must be a module-level function and the arguments
        picklable; otherwise they run inline.
        """
        return map_jobs(fn, argument_tuples, self.pool)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def sample(
        self,
        graph,
        rounds: int,
        *,
        sample_probability: float = 0.5,
        use_weights: bool = False,
        minimise: bool = True,
        seed: Union[int, np.random.SeedSequence, None] = None,
        adaptive: bool = False,
        adaptive_config: Optional[AdaptiveConfig] = None,
    ) -> SamplingResult:
        """Run a failure-sampling audit of ``graph``.

        The one plan → run → merge in the package
        (:class:`FailureSampler` is a front over it): ``rounds`` are
        cut into ``block_size`` blocks with seeds spawned from ``seed``
        — an integer, ``None`` for fresh OS entropy, or a ready
        :class:`numpy.random.SeedSequence` root — the blocks run inline
        or through the pool, and the outcomes merge order-insensitively.

        ``adaptive=True`` turns ``rounds`` into a budget ceiling and
        stops at the first block boundary where the estimate and the RG
        discovery curve have stabilised (see
        :mod:`repro.engine.adaptive`); the stopping point is decided in
        plan order, so it too is worker-count invariant.
        """
        if not 0.0 < sample_probability < 1.0:
            raise AnalysisError(
                f"sample_probability must be in (0,1), got {sample_probability}"
            )
        if isinstance(seed, np.random.SeedSequence):
            root = seed
        else:
            check_seed(seed)
            root = np.random.SeedSequence(seed)
        plan = plan_blocks(rounds, self.block_size, root)
        weights = None
        if use_weights:
            probs = graph.probabilities()
            # basic_names order comes from compilation; on the parallel
            # path the cache makes this compile a one-off that every
            # later call (and the workers) reuse.
            names = self.compile(graph).basic_names
            weights = [probs[n] for n in names]
        stopper = AdaptiveStopper(adaptive_config) if adaptive else None
        outcomes = self._run_plan(
            graph,
            plan,
            probabilities=weights,
            default_probability=sample_probability,
            minimise=minimise,
            stopper=stopper,
        )
        metadata = {
            "engine": {
                "workers": self.n_workers,
                "blocks": len(outcomes),
                "planned_blocks": len(plan),
                "block_size": self.block_size,
            },
        }
        if stopper is not None:
            metadata.update(stopper.summary())
        return merge_block_outcomes(
            outcomes,
            minimised=minimise,
            sample_probability=None if weights is not None else sample_probability,
            metadata=metadata,
        )

    def _run_plan(
        self,
        graph,
        plan,
        *,
        probabilities,
        default_probability: float,
        minimise: bool,
        stopper=None,
    ):
        """Execute a block plan — the one "where do blocks run" step.

        Through the pool when this engine fans out, the plan has more
        than one block and each block is worth shipping (at least
        :data:`POOLED_BLOCK_WORK` node-rounds); inline otherwise, without
        touching the pool.  This is the package's only plan-size test.
        ``stopper``, when given, truncates the plan at the adaptive
        stopping point (observed in plan order on either path).  Returns
        the block outcomes in plan order.
        """
        if (
            self.fanout > 1
            and len(plan) > 1
            and plan.rounds[0] * len(graph) >= POOLED_BLOCK_WORK
        ):
            # Workers compile through their process-local caches; don't
            # pay for an unused parent-side compilation here.
            return self.pool.run_plan(
                graph,
                plan,
                probabilities=probabilities,
                default_probability=default_probability,
                minimise=minimise,
                stopper=stopper,
            )
        return run_plan_serial(
            self.compile(graph),
            plan,
            probabilities=probabilities,
            default_probability=default_probability,
            minimise=minimise,
            stopper=stopper,
        )

    def sample_spec(self, graph, spec: AuditSpec) -> SamplingResult:
        """Sample ``graph`` with the parameters of an :class:`AuditSpec`."""
        return self.sample(
            graph,
            spec.sampling_rounds,
            sample_probability=spec.sampling_probability,
            seed=spec.seed,
            adaptive=spec.adaptive,
        )

    # ------------------------------------------------------------------ #
    # Multi-deployment auditing
    # ------------------------------------------------------------------ #

    def audit_jobs(self, jobs: Sequence[AuditJob]) -> list[DeploymentAudit]:
        """Audit independent deployment jobs, fanning out across workers.

        *The* process fan-out of multi-deployment auditing: results are
        those of ``SIAAuditor(..., engine=<inline engine of this block
        size>).audit_deployment(spec)`` per job, for any worker count.
        """
        if not jobs:
            raise SpecificationError("no audit jobs given")
        return self.map_jobs(
            _run_audit_job, [(job, self.block_size) for job in jobs]
        )

    def audit_many(
        self,
        specs: SpecSource,
        title: str = "multi-deployment audit",
        client: str = "",
    ) -> AuditReport:
        """Audit a directory (or list) of deployment spec files concurrently.

        ``specs`` is either a directory containing ``*.json`` spec files
        (see :func:`~repro.engine.specset.load_audit_job`) or an explicit
        list of file paths.  Loading and validation are shared with
        :meth:`audit_delta` (one copy, one behavior — including the
        duplicate-deployment rejection).
        """
        jobs = load_report_jobs(specs)
        return AuditReport(
            title=title,
            audits=self.audit_jobs(jobs),
            ranking_method=jobs[0].spec.ranking,
            client=client,
            metadata={
                "spec_files": [
                    job.metadata.get("source", "") for job in jobs
                ],
            },
        )

    # ------------------------------------------------------------------ #
    # Cached auditing
    # ------------------------------------------------------------------ #

    def audit_spec(
        self,
        depdb,
        spec: AuditSpec,
        weigher=None,
    ) -> DeploymentAudit:
        """Audit one deployment through the result cache.

        The cache key pairs the built graph's structural hash (which
        captures every effect of the DepDB, the detail level and the
        weigher) with the audit parameters and the engine's block size,
        so a hit is exactly a computation whose cold re-run would be
        bit-identical.  Cached audits are returned as-is — treat them as
        read-only.
        """
        auditor = SIAAuditor(depdb, weigher=weigher, engine=self)
        graph = auditor.build_graph(spec)
        audit, _hit = self.audit_built(auditor, graph, spec)
        return audit

    def audit_built(
        self, auditor, graph: FaultGraph, spec: AuditSpec
    ) -> tuple:
        """Audit an already-built graph through the result cache.

        Returns ``(audit, hit)``.  :meth:`audit_store`, which already
        holds the graph's structural hash, uses :meth:`_audit_hashed`.
        """
        return self._audit_hashed(auditor, graph, structural_hash(graph), spec)

    def _audit_hashed(
        self,
        auditor,
        graph: FaultGraph,
        digest: str,
        spec: AuditSpec,
        missed: bool = False,
    ) -> tuple:
        """:meth:`audit_built` for a graph whose structural hash is
        ``digest``, so a caller that already has it does not hash twice.
        ``missed``: the caller has just asked the result cache for this
        audit and missed, so it is not asked (and counted) again."""
        if _seedless(spec):
            # A seedless sampling audit draws fresh OS entropy on every
            # cold run, so no cached result is "bit-identical to a cold
            # recomputation" — always recompute, never cache.
            return auditor.audit_graph(graph, spec), False
        key = (digest, self.block_size, _spec_audit_key(spec))
        audit = None if missed else self._audits.get(key)
        if audit is None:
            audit = auditor.audit_graph(graph, spec)
            self._audits.put(key, audit)
            return audit, False
        return audit, True

    def audit_store(
        self,
        depdb,
        spec: AuditSpec,
        weigher=None,
        *,
        record_snapshot: bool = True,
        label: str = "",
    ) -> StoreAuditOutcome:
        """Audit a live DepDB *store*, snapshot-diffed against its last
        audited state.

        The store's content hash is compared with its most recent
        snapshot before auditing.  An unchanged store re-audited with
        unchanged parameters is a lookup: the engine keeps an index
        *(this store, content hash, every spec field but metadata,
        weigher)* → structural hash into the result cache, and a hit
        there builds and hashes nothing.  The store itself is part of
        the key (held by weak reference, so the engine keeps no store
        alive): the content hash ignores record order and the graph
        does not, but one append-only store has only one order per
        content hash.  The weigher is keyed as an object, also by weak
        reference, so it must be hashable and a pure function of its
        arguments; one that cannot be weakly referenced is not indexed.
        An entry whose store or weigher has been collected is dropped at
        the next call.  An entry is
        written only once the store is seen to hold ``content`` after
        the build (the snapshot's re-check, or a re-hash with
        ``record_snapshot=False``), so a write landing mid-build never
        maps the old hash to the new graph.  Without an entry, or with
        its audit evicted from the result cache, the graph is built,
        hashed and audited through the result cache as by
        :meth:`audit_built`.  A seedless sampling spec is never cached
        or indexed.  After the audit, a snapshot of the audited
        state is recorded (labelled with the graph's structural hash
        unless ``label`` is given) so the *next* call diffs against this
        audit, and so a later request can name the label as its ``base``.
        A store that drifted while it was being audited (another thread
        or process ingested) is left unsnapshotted
        (:meth:`~repro.depdb.DepDB.snapshot_audited`) — the state that
        was audited is gone, and marking the new one audited would make
        the next call report ``changed=False`` for records nobody
        audited.
        """
        content = depdb.content_hash()
        last = depdb.last_snapshot()
        previous = None if last is None else last.digest
        if self._dead:
            self._dead.clear()
            self._stores.discard_if(_has_dead_referent)
        index = None
        audit = None
        probed = None  # the structural hash whose audit was asked for
        if not _seedless(spec):
            index = self._store_index(depdb, content, spec, weigher)
        if index is not None:
            probed = self._stores.get(index)
            if probed is not None:
                audit = self._audits.get(
                    (probed, self.block_size, _spec_audit_key(spec))
                )
        indexed = hit = audit is not None
        if indexed:
            digest = probed
        else:
            auditor = SIAAuditor(depdb, weigher=weigher, engine=self)
            graph = auditor.build_graph(spec)
            digest = structural_hash(graph)
            # An evicted audit has already counted this call's miss.
            audit, hit = self._audit_hashed(
                auditor, graph, digest, spec, missed=digest == probed
            )
        snapshot = None
        if record_snapshot:
            snapshot = depdb.snapshot_audited(content, label or digest)
        if index is not None and not indexed and (
            snapshot is not None
            if record_snapshot
            else depdb.content_hash() == content
        ):
            # The store held ``content`` after the build too, so the
            # graph was built from the records ``content`` names.
            self._stores.put(index, digest)
        return StoreAuditOutcome(
            audit=audit,
            structural_hash=digest,
            content_hash=content,
            previous=previous,
            changed=previous is None or previous != content,
            cache_hit=hit,
            snapshot=snapshot,
        )

    def _store_index(self, depdb, content: str, spec, weigher):
        """:meth:`audit_store`'s index key, or ``None`` for a weigher that
        cannot be weakly referenced.  A collected referent is noted in
        ``_dead``; no lock is taken, as a collection can run anywhere."""
        noted = self._dead.append
        try:
            weigher_ref = (
                None if weigher is None else weakref.ref(weigher, noted)
            )
        except TypeError:
            return None
        return (
            weakref.ref(depdb, noted),
            content,
            _spec_store_key(spec),
            weigher_ref,
        )

    # ------------------------------------------------------------------ #
    # Delta auditing
    # ------------------------------------------------------------------ #

    def _build_graph(self, job: AuditJob) -> FaultGraph:
        return job.auditor(self).build_graph(job.spec)

    def diff_spec_sets(
        self,
        old: Optional[SpecSource],
        new: SpecSource,
        new_graphs: Optional[dict] = None,
        old_graphs: Optional[dict] = None,
    ) -> SpecSetDelta:
        """Deployment-level diff of two spec sets (``old`` may be None).

        ``old_graphs``/``new_graphs`` are optional ``{deployment: built
        FaultGraph}`` maps from a previous iteration — deployments found
        there skip the (pure-Python, surprisingly costly) graph rebuild.
        """
        old_jobs = () if old is None else load_spec_set(old)
        new_jobs = load_spec_set(new)
        old_by_name = {job.spec.deployment: job for job in old_jobs}
        new_by_name = {job.spec.deployment: job for job in new_jobs}
        added = tuple(sorted(set(new_by_name) - set(old_by_name)))
        removed = tuple(sorted(set(old_by_name) - set(new_by_name)))
        common = sorted(set(old_by_name) & set(new_by_name))

        old_graphs = dict(old_graphs or {})
        for name in common:
            if name not in old_graphs:
                old_graphs[name] = self._build_graph(old_by_name[name])
        if new_graphs is None:
            new_graphs = {
                name: self._build_graph(new_by_name[name])
                for name in common
            }
        changed: list[DeploymentChange] = []
        unchanged: list[str] = []
        for name in common:
            delta = graph_delta(old_graphs[name], new_graphs[name])
            spec_changed = _spec_audit_key(
                old_by_name[name].spec
            ) != _spec_audit_key(new_by_name[name].spec)
            if delta.is_noop and not spec_changed:
                unchanged.append(name)
            else:
                changed.append(
                    DeploymentChange(
                        deployment=name,
                        delta=delta,
                        spec_changed=spec_changed,
                    )
                )
        return SpecSetDelta(
            added=added,
            removed=removed,
            changed=tuple(changed),
            unchanged=tuple(unchanged),
        )

    def audit_delta(
        self,
        old: Optional[SpecSource],
        new: SpecSource,
        title: str = "delta audit",
        client: str = "",
        old_graphs: Optional[dict] = None,
        prebuilt_graphs: Optional[dict] = None,
    ) -> DeltaAuditReport:
        """Re-audit ``new``, reusing everything the diff proves unchanged.

        ``old`` is the previously audited spec set (a directory or a
        job sequence); pass ``None`` for a first run (everything counts
        as added).  The engine does not re-audit ``old`` — when it was
        audited through this engine before, its deployments sit in the
        result cache and every unchanged deployment becomes a cache hit.
        ``old_graphs`` optionally recycles the previous iteration's
        built graphs (``outcome.new_graphs``) so steady-state polls skip
        rebuilding the old side of the diff; ``prebuilt_graphs`` does
        the same for the *new* side — the caller asserts each entry is
        the built graph of the same-named job in ``new`` (the watch
        service proves this with file snapshots).  The returned report's
        deployments are bit-identical to an uncached
        :meth:`audit_jobs` over ``new``.
        """
        new_jobs = load_report_jobs(new)
        prebuilt = prebuilt_graphs or {}
        new_graphs = {
            job.spec.deployment: (
                prebuilt.get(job.spec.deployment)
                or self._build_graph(job)
            )
            for job in new_jobs
        }
        delta = self.diff_spec_sets(
            old, new_jobs, new_graphs=new_graphs, old_graphs=old_graphs
        )
        # The one cached loop: every deployment of the set goes through
        # the result cache of this process, in order.
        audits: list[DeploymentAudit] = []
        reused: list[str] = []
        recomputed: list[str] = []
        for job in new_jobs:
            check_cancelled()
            audit, hit = self.audit_built(
                job.auditor(self), new_graphs[job.spec.deployment], job.spec
            )
            audits.append(audit)
            (reused if hit else recomputed).append(job.spec.deployment)
        report = AuditReport(
            title=title,
            audits=audits,
            ranking_method=new_jobs[0].spec.ranking,
            client=client,
            metadata={
                "reused": reused,
                "recomputed": recomputed,
                "delta": delta.to_dict(),
            },
        )
        return DeltaAuditReport(
            report=report,
            delta=delta,
            reused=tuple(reused),
            recomputed=tuple(recomputed),
            new_graphs=new_graphs,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def info(self) -> dict:
        return {
            "workers": self.n_workers,
            "block_size": self.block_size,
            "cpu_count": os.cpu_count(),
            "cache": self.cache.info(),
            "audits": self._audits.info(),
            "stores": self._stores.info(),
            "pool": (
                self.pool.stats()
                if self.pool is not None
                else {"enabled": False}
            ),
        }


# Namespaces the spawn keys of repeat runs away from run 0's plain
# ``spawn`` children, which keeps run 0 bit-identical to samplers that
# predate per-run keying (golden figure pins rely on that).
_RUN_TAG = 0x17DAA5


class FailureSampler:
    """Monte-Carlo risk-group detector over a fault graph (§4.1.2).

    The exact minimal-RG algorithm is NP-hard, so INDaaS offers a
    linear-time randomised alternative: in each round, fail every basic
    event independently at random, propagate values bottom-up, and —
    whenever the top event fails — record the failing set as a risk
    group.  Rounds run in NumPy blocks (:mod:`repro.engine.batch`), each
    failing round is shrunk to a true minimal RG unless ``minimise`` is
    off, and every block draws from its own ``SeedSequence.spawn`` child,
    so a run is a pure function of ``(graph, parameters, seed,
    run_index)`` — bit-identical inline or across worker processes (see
    DESIGN.md).  The run index counts :meth:`run` calls on one instance
    (``SamplingResult.metadata["run_index"]``): repeated calls draw
    fresh, disjoint streams, and the k-th call on a fresh sampler with
    the same seed always reproduces the same result.

    Args:
        graph: Dependency graph to sample (any level of detail).
        sample_probability: Per-round failure chance of each basic event.
            The paper's "coin flipping" corresponds to 0.5; smaller values
            bias rounds towards small failing sets, which finds small
            (high-impact) RGs with fewer rounds.
        use_weights: Sample each event with its own failure probability
            from the graph instead of the uniform ``sample_probability``
            (requires a weighted graph).
        minimise: Extract+minimise a true minimal RG from each failing
            round.  A raw failing set under fair coin flips holds about
            half of all basic events; ``False`` keeps the literal
            algorithm.
        seed: RNG seed; runs are reproducible for a fixed seed.
        batch_size: Rounds evaluated per NumPy block.  Part of the seeded
            stream definition: changing it changes which random numbers
            each round sees (the worker *count* of a parallel run, by
            contrast, never does).
        adaptive: Stop early once the top-event estimate and the
            risk-group discovery curve stabilise (see
            :mod:`repro.engine.adaptive`).  ``rounds`` becomes a budget
            ceiling; the result reports the rounds actually executed.
        adaptive_config: Stopping-rule parameters; implies a default
            :class:`~repro.engine.adaptive.AdaptiveConfig` when
            ``adaptive=True`` and left ``None``.
    """

    def __init__(
        self,
        graph: FaultGraph,
        sample_probability: float = 0.5,
        use_weights: bool = False,
        minimise: bool = True,
        seed: Optional[int] = None,
        batch_size: int = 4096,
        adaptive: bool = False,
        adaptive_config: Optional[AdaptiveConfig] = None,
    ) -> None:
        if not 0.0 < sample_probability < 1.0:
            raise AnalysisError(
                f"sample_probability must be in (0,1), got {sample_probability}"
            )
        if batch_size < 1:
            raise AnalysisError(f"batch_size must be >= 1, got {batch_size}")
        self.graph = graph
        self.sample_probability = sample_probability
        self.use_weights = use_weights
        self.minimise = minimise
        self.batch_size = batch_size
        self.adaptive = adaptive
        self.adaptive_config = adaptive_config
        self._entropy = np.random.SeedSequence(seed).entropy
        self._run_count = 0
        # An inline engine of this sampler's own: its cache holds the
        # compiled graph across runs.  Compiling (and reading the
        # weights) now keeps a malformed or unweighted graph failing at
        # construction rather than on the first run.
        self._engine = AuditEngine(n_workers=1, block_size=batch_size)
        self._engine.compile(graph)
        if use_weights:
            graph.probabilities()

    def _next_run_root(self) -> tuple[np.random.SeedSequence, int]:
        """Fresh per-run seed root, keyed by an explicit run counter.

        Run 0 uses the plain seed sequence — bit-identical to samplers
        without per-run keying, so existing golden pins hold.  Run k >= 1
        namespaces its spawn keys under ``(_RUN_TAG, k)``, giving each
        repeat call a fresh, disjoint, *reproducible* stream: the k-th
        run of any sampler with this seed is always the same.
        """
        run_index = self._run_count
        self._run_count += 1
        if run_index == 0:
            return np.random.SeedSequence(self._entropy), run_index
        return (
            np.random.SeedSequence(
                self._entropy, spawn_key=(_RUN_TAG, run_index)
            ),
            run_index,
        )

    def run(self, rounds: int) -> SamplingResult:
        """Execute up to ``rounds`` sampling rounds and aggregate risk groups.

        Exact mode (the default) executes every round.  With
        ``adaptive=True``, ``rounds`` is a ceiling and the run halts at
        the first block boundary where the stopping rule is satisfied.
        """
        if rounds < 1:
            raise AnalysisError(f"rounds must be >= 1, got {rounds}")
        root, run_index = self._next_run_root()
        result = self._engine.sample(
            self.graph,
            rounds,
            sample_probability=self.sample_probability,
            use_weights=self.use_weights,
            minimise=self.minimise,
            seed=root,
            adaptive=self.adaptive,
            adaptive_config=self.adaptive_config,
        )
        result.metadata["run_index"] = run_index
        return result
