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

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.report import AuditReport, DeploymentAudit
from repro.core.sampling import SamplingResult, merge_block_outcomes
from repro.core.spec import AuditSpec, RGAlgorithm
from repro.engine.adaptive import AdaptiveConfig, AdaptiveStopper
from repro.engine.cache import GraphCache
from repro.engine.parallel import (
    cancel_scope,
    check_cancelled,
    map_jobs,
    plan_blocks,
    resolve_workers,
    run_plan_serial,
)
from repro.engine.pool import PersistentPool
from repro.errors import AnalysisError, SpecificationError

__all__ = [
    "AuditEngine",
    "AuditJob",
    "load_audit_job",
    "cancel_scope",
    "check_cancelled",
]


@dataclass
class AuditJob:
    """One self-contained deployment audit (spec + its own DepDB).

    ``probability`` is an optional uniform component failure probability;
    it travels as a plain float (weigher closures don't pickle) and each
    worker builds its weigher locally.
    """

    depdb: object
    spec: AuditSpec
    probability: Optional[float] = None
    metadata: dict = field(default_factory=dict)


_JOB_ENGINE: Optional["AuditEngine"] = None


def _run_audit_job(depdb, spec, probability):
    """Module-level worker so jobs survive pickling into pool processes.

    Each process keeps one serial engine so its compilation cache spans
    all the jobs it serves.
    """
    from repro.core.audit import SIAAuditor
    from repro.failures import uniform_weigher

    global _JOB_ENGINE
    if _JOB_ENGINE is None:
        _JOB_ENGINE = AuditEngine(n_workers=1)
    weigher = uniform_weigher(probability) if probability is not None else None
    auditor = SIAAuditor(depdb, weigher=weigher, engine=_JOB_ENGINE)
    return auditor.audit_deployment(spec)


#: ``audit-many`` spec fields with their JSON types.  Booleans pass
#: ``isinstance(..., int)``, so they are rejected explicitly where an
#: int is expected.  Validated up front so a mistyped hand-edited file
#: surfaces as a clean SpecificationError (which long-running consumers
#: like ``indaas watch`` survive), never as a TypeError from deep inside
#: AuditSpec.
_SPEC_FIELD_TYPES = {
    "depdb": (str,),
    "name": (str,),
    "algorithm": (str,),
    "rounds": (int,),
    "required": (int,),
    "seed": (int, type(None)),
    "sample_probability": (int, float),
    "probability": (int, float, type(None)),
}


def _check_spec_types(path, payload: dict) -> None:
    servers = payload["servers"]
    if not isinstance(servers, list) or not all(
        isinstance(s, str) for s in servers
    ):
        raise SpecificationError(
            f"{path}: servers must be a list of strings"
        )
    for key, types in _SPEC_FIELD_TYPES.items():
        if key not in payload:
            continue
        value = payload[key]
        if not isinstance(value, types) or isinstance(value, bool):
            wanted = "/".join(
                t.__name__ for t in types if t is not type(None)
            )
            raise SpecificationError(
                f"{path}: {key} must be {wanted}, "
                f"got {type(value).__name__}"
            )


def load_audit_job(
    path: Union[str, Path], payload: Optional[dict] = None
) -> AuditJob:
    """Parse one ``audit-many`` deployment spec file.

    ``payload``, when given, is the file's already-parsed JSON object —
    callers that must inspect the JSON before loading (the watch
    service stats the referenced DepDB first) avoid a second read and
    parse this way.

    The JSON schema (all paths relative to the spec file)::

        {
          "depdb": "web.depdb",          // required: DepDB dump to audit
          "servers": ["S1", "S2"],       // required: redundant servers
          "name": "web-tier",            // optional deployment name
          "algorithm": "minimal",        // or "sampling"
          "rounds": 100000,              // sampling rounds
          "sample_probability": 0.5,     // sampling coin bias
          "required": 1,                 // n of n-of-m redundancy
          "seed": 0,                     // sampling seed
          "probability": 0.1             // uniform component weigher
        }
    """
    from repro.depdb import DepDB

    path = Path(path)
    if payload is None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise SpecificationError(f"{path}: cannot read spec: {exc}")
        except json.JSONDecodeError as exc:
            raise SpecificationError(f"{path}: invalid JSON: {exc}")
    if not isinstance(payload, dict):
        raise SpecificationError(f"{path}: spec must be a JSON object")
    for key in ("depdb", "servers"):
        if key not in payload:
            raise SpecificationError(f"{path}: missing required key {key!r}")
    _check_spec_types(path, payload)
    depdb_path = path.parent / payload["depdb"]
    try:
        depdb = DepDB.loads(depdb_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SpecificationError(f"{path}: cannot read DepDB: {exc}")
    servers = tuple(payload["servers"])
    algorithm = payload.get("algorithm", "minimal")
    if algorithm not in ("minimal", "sampling"):
        raise SpecificationError(
            f"{path}: algorithm must be minimal|sampling, got {algorithm!r}"
        )
    spec = AuditSpec(
        deployment=payload.get("name") or " & ".join(servers),
        servers=servers,
        required=payload.get("required", 1),
        algorithm=(
            RGAlgorithm.SAMPLING
            if algorithm == "sampling"
            else RGAlgorithm.MINIMAL
        ),
        sampling_rounds=payload.get("rounds", 100_000),
        sampling_probability=payload.get("sample_probability", 0.5),
        seed=payload.get("seed", 0),
    )
    return AuditJob(
        depdb=depdb,
        spec=spec,
        probability=payload.get("probability"),
        metadata={"source": str(path), "depdb": str(depdb_path)},
    )


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
        started = time.perf_counter()
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
            reusable_stream=seed is not None,
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
            elapsed_seconds=time.perf_counter() - started,
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
        reusable_stream: bool = True,
        stopper=None,
    ):
        """Execute a block plan; the single overridable step of ``sample``.

        Subclasses (the delta engine) replace only this, so the plan
        construction, weights extraction and merge above stay one copy —
        which is what keeps the bit-parity contract a single point of
        truth.  ``reusable_stream`` is False when the plan's seeds come
        from fresh OS entropy (``seed=None``) — such blocks can never
        legitimately be served from (or usefully stored in) a cache.
        ``stopper``, when given, truncates the plan at the adaptive
        stopping point (observed in plan order on every path).
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
    # Canonical-request auditing (the ``repro.api`` hook)
    # ------------------------------------------------------------------ #

    def audit_request(self, request):
        """Execute one :class:`repro.api.AuditRequest` on this engine.

        The submission hook the audit service (and any other
        schema-speaking caller) uses: returns the canonical
        :class:`repro.api.AuditReport`, bit-identical for any worker
        count and to every other executor of the same request.
        """
        from repro import api

        result = api.execute_request(request, engine=self)
        return api.report_for_request(
            request, result.audit, structural_digest=result.structural_hash
        )

    # ------------------------------------------------------------------ #
    # Multi-deployment auditing
    # ------------------------------------------------------------------ #

    def audit_jobs(self, jobs: Sequence[AuditJob]) -> list[DeploymentAudit]:
        """Audit independent deployment jobs, fanning out across workers."""
        if not jobs:
            raise SpecificationError("no audit jobs given")
        return self.map_jobs(
            _run_audit_job,
            [(job.depdb, job.spec, job.probability) for job in jobs],
        )

    def audit_many(
        self,
        specs: Union[str, Path, Sequence[Union[str, Path]]],
        title: str = "multi-deployment audit",
        client: str = "",
    ) -> AuditReport:
        """Audit a directory (or list) of deployment spec files concurrently.

        ``specs`` is either a directory containing ``*.json`` spec files
        (see :func:`load_audit_job`) or an explicit list of file paths.
        Loading and validation are shared with the incremental layer
        (one copy, one behavior — including the duplicate-deployment
        rejection).
        """
        from repro.engine.incremental import (
            _require_single_ranking,
            load_spec_set,
        )

        if not isinstance(specs, (str, Path)):
            specs = [load_audit_job(Path(p)) for p in specs]
        jobs = load_spec_set(specs)
        if not jobs:
            raise SpecificationError("no audit jobs given")
        _require_single_ranking(jobs)
        audits = self.audit_jobs(list(jobs))
        return AuditReport(
            title=title,
            audits=audits,
            ranking_method=jobs[0].spec.ranking,
            client=client,
            metadata={
                "engine": {"workers": self.n_workers},
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
        so its block/audit caches stay warm across :meth:`audit_delta`
        calls.
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
