"""The :class:`AuditEngine` facade — cached, batched, parallel auditing.

One engine object owns the three scaling mechanisms of this package and
hands them to the rest of the system behind a small API:

* a :class:`~repro.engine.cache.GraphCache` so repeated audits and
  what-if sweeps stop recompiling identical graphs;
* the one plan → run → merge of failure sampling
  (:func:`~repro.engine.parallel.plan_blocks`, inline or through the
  pool, :func:`~repro.core.sampling.merge_block_outcomes`) — bit-identical
  results either way;
* the decision *where* a block or a fan-out job runs: an engine with
  more than one worker owns a :class:`~repro.engine.pool.PersistentPool`
  (or shares an injected one) and everything else runs inline.

Consumers: :class:`~repro.core.audit.SIAAuditor` (pass ``engine=``),
:func:`~repro.analysis.whatif.evaluate_mitigations` (ditto), and the
``indaas audit-many`` CLI verb.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.report import AuditReport, DeploymentAudit
from repro.core.sampling import SamplingResult, merge_block_outcomes
from repro.core.spec import AuditSpec
from repro.engine.adaptive import AdaptiveConfig, AdaptiveStopper
from repro.engine.cache import GraphCache, default_cache
from repro.engine.parallel import (
    cancel_scope,
    check_cancelled,
    map_jobs,
    plan_blocks,
    resolve_workers,
    run_plan_serial,
)
from repro.engine.pool import PersistentPool
from repro.engine.specset import AuditJob, SpecSource, load_report_jobs
from repro.errors import AnalysisError, SpecificationError

__all__ = ["AuditEngine", "cancel_scope", "check_cancelled"]


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
    """Facade over graph caching, batched sampling and process fan-out.

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
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        block_size: int = 4096,
        cache: Optional[GraphCache] = None,
        pool: Optional[PersistentPool] = None,
    ) -> None:
        if block_size < 1:
            raise AnalysisError(f"block_size must be >= 1, got {block_size}")
        self.n_workers = resolve_workers(n_workers)
        self.block_size = block_size
        self.cache = cache if cache is not None else GraphCache()
        self._owns_pool = pool is None and self.n_workers > 1
        self.pool: Optional[PersistentPool] = (
            PersistentPool(self.n_workers) if self._owns_pool else pool
        )

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

    def compile_bdd(self, graph):
        """Cached BDD compilation of ``graph`` (exact probabilities)."""
        return self.cache.compile_bdd(graph)

    # ------------------------------------------------------------------ #
    # Where work runs
    # ------------------------------------------------------------------ #

    @property
    def fanout(self) -> int:
        """Processes a block plan or job sweep spreads over (1: inline)."""
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
        (:class:`~repro.core.sampling.FailureSampler` is a front over
        it): ``rounds`` are cut into ``block_size`` blocks with seeds
        spawned from ``seed`` — an integer, ``None`` for fresh OS
        entropy, or a ready :class:`numpy.random.SeedSequence` root —
        the blocks run inline or through the pool, and the outcomes
        merge order-insensitively.

        ``adaptive=True`` turns ``rounds`` into a budget ceiling and
        stops at the first block boundary where the estimate and the RG
        discovery curve have stabilised (see
        :mod:`repro.engine.adaptive`); the stopping point is decided in
        plan order, so it too is worker-count invariant.
        """
        if rounds < 1:
            raise AnalysisError(f"rounds must be >= 1, got {rounds}")
        if not 0.0 < sample_probability < 1.0:
            raise AnalysisError(
                f"sample_probability must be in (0,1), got {sample_probability}"
            )
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
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
        outcomes, execution_metadata = self._run_plan(
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
            **execution_metadata,
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

        Through the pool when this engine fans out and the plan has
        more than one block, inline otherwise; no subclass replaces it.
        ``stopper``, when given, truncates the plan at the adaptive
        stopping point (observed in plan order on either path).
        Returns ``(outcomes, extra result metadata)``.
        """
        if self.fanout > 1 and len(plan) > 1:
            # Workers compile through their process-local caches; don't
            # pay for an unused parent-side compilation here.
            outcomes = self.pool.run_plan(
                graph,
                plan,
                probabilities=probabilities,
                default_probability=default_probability,
                minimise=minimise,
                stopper=stopper,
            )
            return outcomes, {"pool": self.pool.stats()}
        outcomes = run_plan_serial(
            self.compile(graph),
            plan,
            probabilities=probabilities,
            default_probability=default_probability,
            minimise=minimise,
            stopper=stopper,
        )
        return outcomes, {}

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
        list of file paths.  Loading and validation are shared with the
        incremental layer (one copy, one behavior — including the
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
    # Incremental auditing
    # ------------------------------------------------------------------ #

    def delta(self) -> "AuditEngine":
        """The lazily created incremental companion engine.

        A :class:`~repro.engine.incremental.DeltaAuditEngine` sharing
        this engine's :class:`GraphCache`, block size and worker pool
        (shared, never owned); repeated calls return the same instance,
        so its result cache stays warm across :meth:`audit_delta` calls.
        """
        from repro.engine.incremental import DeltaAuditEngine

        if isinstance(self, DeltaAuditEngine):
            return self
        existing = getattr(self, "_delta_engine", None)
        if existing is None:
            existing = DeltaAuditEngine(
                n_workers=self.n_workers,
                block_size=self.block_size,
                cache=self.cache,
                pool=self.pool,
            )
            self._delta_engine = existing
        return existing

    def audit_delta(
        self,
        old,
        new,
        title: str = "delta audit",
        client: str = "",
        old_graphs=None,
        prebuilt_graphs=None,
    ):
        """Diff two deployment spec sets and re-audit only what changed.

        ``old``/``new`` are spec directories or :class:`AuditJob`
        sequences (``old`` may be ``None`` for a first run).  Callers
        polling in a loop should feed the returned outcome's
        ``new_graphs`` back as ``old_graphs`` so steady-state calls skip
        rebuilding the old side of the diff; ``prebuilt_graphs``
        likewise short-circuits the new side (see
        :meth:`~repro.engine.incremental.DeltaAuditEngine.audit_delta`
        for the caller's proof obligation).  Returns a
        :class:`~repro.engine.incremental.DeltaAuditReport` whose report
        is bit-identical to a cold full audit of ``new``; see
        :mod:`repro.engine.incremental`.
        """
        return self.delta().audit_delta(
            old,
            new,
            title=title,
            client=client,
            old_graphs=old_graphs,
            prebuilt_graphs=prebuilt_graphs,
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
            "pool": (
                self.pool.stats()
                if self.pool is not None
                else {"enabled": False}
            ),
        }
