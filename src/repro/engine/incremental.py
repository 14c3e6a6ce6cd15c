"""Incremental (delta) auditing — keep reports fresh as deployments drift.

INDaaS is a *service*: dependency data changes continuously (AID and the
follow-up cloud-reliability literature measure constant drift), so the
auditor must not re-pay full fault-graph compilation and sampling on
every small change.  This module layers incremental recomputation on the
PR-1 engine without ever bending its determinism contract:

* :func:`graph_delta` — structural diff between two fault graphs
  (events added / removed / re-wired, probabilities changed) plus the
  *affected cone*: every changed event and all of its ancestors up to
  the top event.  An empty delta is exactly equivalent to an unchanged
  :func:`~repro.engine.cache.structural_hash`.
* :class:`DeltaAuditEngine` — an :class:`~repro.engine.AuditEngine`
  whose sampling path runs through a content-addressed
  *block-outcome cache* and whose auditing path runs through a
  *result cache*, both keyed by structural hash + audit parameters.
  Cached artefacts are reused **only** when the key proves the cold
  computation would be bit-identical, so every result the delta engine
  returns equals a cold full audit of the same input — reuse can change
  wall-clock time, never bytes.
* :meth:`DeltaAuditEngine.audit_delta` — diff two deployment spec sets,
  re-audit only deployments whose fault graph (or audit parameters)
  actually changed, and serve the untouched ones from cache, reporting
  exactly what was reused and why.
* :class:`WatchService` — the long-running ``indaas watch`` loop:
  poll a spec directory, keep the caches warm across iterations, and
  emit one JSON report per iteration.

What is (and is not) reusable, bit-identically
----------------------------------------------

A sampling block's outcome is a pure function of ``(graph structure,
block seed, block rounds, sampling parameters)`` — the per-block RNG
stream starts from the block's own ``SeedSequence`` child and its
consumption depends on the graph's basic-event layout.  Any structural
change therefore changes the stream, so a changed graph can never reuse
the old graph's blocks and still match a cold audit.  What *can* be
reused, and is:

* whole deployments whose graph hash and audit parameters are unchanged
  (the dominant win: drift touches a few components, which touches the
  deployments that depend on them and no others);
* every block of a no-op diff, a reverted graph (config flap back to a
  previously audited structure), or a rounds *extension* — blocks are
  seeded with ``SeedSequence.spawn`` children, so the first N blocks of
  a longer run are bit-identical to the N blocks of a shorter one;
* compiled array/BDD forms for any graph structure seen before (the
  shared :class:`~repro.engine.cache.GraphCache`).

The delta engine runs blocks and audit jobs in-process (fanning out to
worker processes would bypass the warm caches, which is the opposite of
what a long-running service wants).  Worker counts never change results
anyway — see DESIGN.md.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.faultgraph import FaultGraph
from repro.core.report import AuditReport, DeploymentAudit
from repro.core.spec import AuditSpec
from repro.engine.batch import BlockOutcome, run_block
from repro.engine.cache import GraphCache, structural_hash
from repro.engine.facade import (
    AuditEngine,
    AuditJob,
    check_cancelled,
    load_audit_job,
)
from repro.engine.parallel import BlockPlan
from repro.errors import AnalysisError, IndaasError, SpecificationError

__all__ = [
    "GraphDelta",
    "graph_delta",
    "DeploymentChange",
    "SpecSetDelta",
    "DeltaAuditReport",
    "DeltaAuditEngine",
    "LRUCache",
    "StoreAuditOutcome",
    "WatchService",
    "load_spec_set",
]


# --------------------------------------------------------------------- #
# Graph diffing
# --------------------------------------------------------------------- #


def _local_signature(graph: FaultGraph, name: str):
    """Evaluation-relevant structure of one event, as a comparable value.

    Mirrors exactly what :func:`~repro.engine.cache.structural_hash`
    digests per event, so two graphs have equal signatures for every
    event (and the same top) iff their hashes are equal.
    """
    event = graph.event(name)
    if event.is_basic:
        return ("basic", repr(event.probability))
    return ("gate", event.gate.name, graph.threshold(name), graph.children(name))


@dataclass(frozen=True)
class GraphDelta:
    """Structural difference between two fault graphs.

    Attributes:
        added: Event names present only in the new graph.
        removed: Event names present only in the old graph.
        changed: Events present in both whose local structure differs
            (gate type, threshold, child wiring, failure probability).
        affected: The affected cone of the new graph — every added or
            changed event plus all of its ancestors up to the top.  This
            is the subgraph whose evaluation can differ from the old
            graph's; everything outside it evaluates identically.
        total_events: Event count of the new graph.
        tops_differ: Whether the top event changed.
    """

    added: tuple[str, ...]
    removed: tuple[str, ...]
    changed: tuple[str, ...]
    affected: tuple[str, ...]
    total_events: int
    tops_differ: bool = False

    @property
    def is_noop(self) -> bool:
        """True iff the graphs share one structural hash."""
        return not (
            self.added or self.removed or self.changed or self.tops_differ
        )

    @property
    def affected_fraction(self) -> float:
        if self.total_events == 0:
            return 0.0
        return len(self.affected) / self.total_events

    def summary(self) -> str:
        if self.is_noop:
            return "no structural change"
        return (
            f"+{len(self.added)} / -{len(self.removed)} events, "
            f"{len(self.changed)} re-wired; affected cone "
            f"{len(self.affected)}/{self.total_events} events "
            f"({self.affected_fraction:.0%})"
        )

    def to_dict(self) -> dict:
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "changed": list(self.changed),
            "affected": len(self.affected),
            "total_events": self.total_events,
            "affected_fraction": self.affected_fraction,
            "tops_differ": self.tops_differ,
            "noop": self.is_noop,
        }


def graph_delta(old: FaultGraph, new: FaultGraph) -> GraphDelta:
    """Diff two fault graphs and compute the new graph's affected cone.

    ``delta.is_noop`` is equivalent to
    ``structural_hash(old) == structural_hash(new)`` — the delta layer's
    invalidation decisions and the cache's keys can never disagree.
    """
    if old is new:
        # Same object: trivially a no-op.  This is the steady-state path
        # of WatchService, which recycles unchanged files' graphs.
        return GraphDelta(
            added=(),
            removed=(),
            changed=(),
            affected=(),
            total_events=len(new.events()),
        )
    old_events = set(old.events())
    new_events = set(new.events())
    added = sorted(new_events - old_events)
    removed = sorted(old_events - new_events)
    changed = sorted(
        name
        for name in old_events & new_events
        if _local_signature(old, name) != _local_signature(new, name)
    )
    old_top = old.top if old.has_top else None
    new_top = new.top if new.has_top else None

    affected: set[str] = set()
    stack = list(added) + list(changed)
    if old_top != new_top and new_top is not None:
        # Re-rooting changes what "the" evaluation means even when no
        # event moved; the new top seeds the cone so the blast radius
        # is never reported as empty for a non-noop diff.
        stack.append(new_top)
    while stack:
        node = stack.pop()
        if node in affected:
            continue
        affected.add(node)
        stack.extend(new.parents(node))
    return GraphDelta(
        added=tuple(added),
        removed=tuple(removed),
        changed=tuple(changed),
        affected=tuple(sorted(affected)),
        total_events=len(new_events),
        tops_differ=old_top != new_top,
    )


# --------------------------------------------------------------------- #
# Content-addressed caches
# --------------------------------------------------------------------- #


class LRUCache:
    """Minimal thread-safe LRU map with hit/miss accounting.

    Shared by the delta engine's block/audit caches and the audit
    service's content-addressed report store.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise AnalysisError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
            }


def _seed_key(seed_sequence: np.random.SeedSequence):
    """Hashable identity of a block's seeded stream."""
    entropy = seed_sequence.entropy
    if isinstance(entropy, (list, tuple, np.ndarray)):
        entropy = tuple(int(x) for x in entropy)
    return (entropy, tuple(seed_sequence.spawn_key), seed_sequence.pool_size)


def _spec_audit_key(spec: AuditSpec) -> tuple:
    """Every spec field that reaches the audit output *past* the graph.

    Graph-shaping fields (level, programs, destinations, host events,
    weigher effects) are already captured by the structural hash the key
    is paired with; this covers the rest: identity fields copied into
    the report and the sampling/ranking parameters.
    """
    return (
        spec.deployment,
        spec.servers,
        spec.required,
        spec.algorithm.value,
        spec.sampling_rounds,
        repr(spec.sampling_probability),
        spec.seed,
        spec.ranking.value,
        spec.top_n,
        spec.max_order,
    )


# --------------------------------------------------------------------- #
# Store-backed delta audits
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StoreAuditOutcome:
    """One :meth:`DeltaAuditEngine.audit_store` result with drift proof.

    Attributes:
        audit: The deployment audit (bit-identical to a cold audit of
            the store's records for the same spec).
        structural_hash: Structural hash of the built fault graph.
        content_hash: The store's record-set digest at audit time.
        previous: Digest of the store's last snapshot before this audit
            (None on the first audit of a store).
        changed: Whether the store drifted since that snapshot —
            ``previous is None or previous != content_hash``.
        cache_hit: Whether the audit came from the engine's result
            cache rather than being recomputed.
        snapshot: The snapshot recorded after the audit (None when
            ``record_snapshot=False``).
    """

    audit: DeploymentAudit
    structural_hash: str
    content_hash: str
    previous: Optional[str]
    changed: bool
    cache_hit: bool
    snapshot: Optional[object] = None

    def to_dict(self) -> dict:
        return {
            "structural_hash": self.structural_hash,
            "content_hash": self.content_hash,
            "previous": self.previous,
            "changed": self.changed,
            "cache_hit": self.cache_hit,
            "snapshot": (
                None if self.snapshot is None else self.snapshot.to_dict()
            ),
        }


# --------------------------------------------------------------------- #
# Spec sets and their diffs
# --------------------------------------------------------------------- #


SpecSource = Union[str, Path, Sequence[AuditJob]]


def load_spec_set(specs: SpecSource) -> tuple[AuditJob, ...]:
    """Normalise a spec-set source into a tuple of :class:`AuditJob`.

    ``specs`` is either a directory of ``audit-many`` JSON spec files
    (see :func:`~repro.engine.facade.load_audit_job`) or an already
    materialised sequence of jobs.  Deployment names must be unique —
    they are the identity the delta layer diffs by.
    """
    if isinstance(specs, (str, Path)):
        root = Path(specs)
        if not root.is_dir():
            raise SpecificationError(f"{root} is not a directory")
        paths = sorted(p for p in root.glob("*.json") if p.is_file())
        if not paths:
            raise SpecificationError("no deployment spec files found")
        jobs = tuple(load_audit_job(p) for p in paths)
    else:
        jobs = tuple(specs)
    counts = Counter(job.spec.deployment for job in jobs)
    duplicates = sorted(n for n, count in counts.items() if count > 1)
    if duplicates:
        raise SpecificationError(
            f"duplicate deployment names in spec set: {duplicates}"
        )
    return jobs


def _require_single_ranking(jobs: Sequence[AuditJob]) -> None:
    if len({job.spec.ranking for job in jobs}) != 1:
        raise SpecificationError(
            "all specs in one report must share a ranking method"
        )


@dataclass(frozen=True)
class DeploymentChange:
    """One deployment present in both spec sets, with what moved."""

    deployment: str
    delta: GraphDelta
    spec_changed: bool

    def to_dict(self) -> dict:
        return {
            "deployment": self.deployment,
            "spec_changed": self.spec_changed,
            "graph": self.delta.to_dict(),
        }


@dataclass(frozen=True)
class SpecSetDelta:
    """Deployment-level difference between two spec sets."""

    added: tuple[str, ...]
    removed: tuple[str, ...]
    changed: tuple[DeploymentChange, ...]
    unchanged: tuple[str, ...]

    @property
    def is_noop(self) -> bool:
        return not (self.added or self.removed or self.changed)

    def summary(self) -> str:
        return (
            f"{len(self.added)} deployments added, {len(self.removed)} "
            f"removed, {len(self.changed)} changed, "
            f"{len(self.unchanged)} unchanged"
        )

    def to_dict(self) -> dict:
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "changed": [c.to_dict() for c in self.changed],
            "unchanged": list(self.unchanged),
            "noop": self.is_noop,
        }


@dataclass
class DeltaAuditReport:
    """Outcome of one delta audit: the fresh report plus reuse accounting.

    ``report`` is bit-identical to what a cold full audit of the new
    spec set would produce; ``reused``/``recomputed`` say how it was
    assembled.
    """

    report: AuditReport
    delta: SpecSetDelta
    reused: tuple[str, ...]
    recomputed: tuple[str, ...]
    elapsed_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)
    #: Built fault graphs by deployment name — feed back into the next
    #: ``audit_delta(old_graphs=...)`` call to skip rebuilding the old
    #: side of the diff (what :class:`WatchService` does every poll).
    new_graphs: dict = field(default_factory=dict, repr=False)

    @property
    def reuse_fraction(self) -> float:
        total = len(self.reused) + len(self.recomputed)
        return len(self.reused) / total if total else 0.0

    def summary(self) -> str:
        return (
            f"{self.delta.summary()}; {len(self.reused)} audits reused, "
            f"{len(self.recomputed)} recomputed "
            f"({self.reuse_fraction:.0%} cache reuse)"
        )

    def to_dict(self) -> dict:
        return {
            "delta": self.delta.to_dict(),
            "reused": list(self.reused),
            "recomputed": list(self.recomputed),
            "reuse_fraction": self.reuse_fraction,
            "elapsed_seconds": self.elapsed_seconds,
            "report": self.report.to_dict(),
        }


# --------------------------------------------------------------------- #
# The delta engine
# --------------------------------------------------------------------- #


class DeltaAuditEngine(AuditEngine):
    """An :class:`AuditEngine` with incremental, content-addressed reuse.

    Args:
        n_workers: Worker processes for computing cache-miss blocks
            (``None``/``0``/``1`` compute them inline; the cache itself
            always lives in this process).  As everywhere, the worker
            count never changes results.
        block_size: Sampling rounds per block (part of the stream
            definition, exactly as for the base engine).
        cache: Optional shared :class:`GraphCache`.
        max_cached_blocks: LRU capacity of the block-outcome cache.
        max_cached_audits: LRU capacity of the deployment-audit cache.
        pool: Optional shared worker pool, as for the base engine.

    Sampling and auditing share this process's warm caches across
    repeated calls; results are bit-identical to the base engine (and
    the serial :class:`~repro.core.sampling.FailureSampler`) for the
    same seed and block size, whether a block came from the cache, was
    computed inline, or was computed in a worker process.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        block_size: int = 4096,
        cache: Optional[GraphCache] = None,
        max_cached_blocks: int = 8192,
        max_cached_audits: int = 1024,
        pool=None,
    ) -> None:
        super().__init__(
            n_workers=n_workers, block_size=block_size, cache=cache, pool=pool
        )
        self._blocks = LRUCache(max_cached_blocks)
        self._audits = LRUCache(max_cached_audits)

    # ------------------------------------------------------------------ #
    # Cached sampling
    # ------------------------------------------------------------------ #

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
        """Block execution through the outcome cache.

        The only step of :meth:`AuditEngine.sample` this engine
        replaces: each block's outcome is keyed by ``(structural hash,
        sampling parameters, block rounds, block seed)``; a hit
        substitutes the stored outcome for re-running
        :func:`~repro.engine.batch.run_block` on identical inputs, which
        is the definition of bit-identical reuse.  Blocks carry
        independent generators, so skipping some never perturbs the
        others.

        With workers and no ``stopper``, cache-miss blocks fan out
        across processes; adaptive runs stay inline so the stopper sees
        each outcome (cached or computed) in strict plan order.
        """
        if not reusable_stream:
            # Fresh-entropy seeds can never hit again; storing their
            # outcomes would only churn warm entries out of the LRU.
            outcomes = super()._run_plan(
                graph,
                plan,
                probabilities=probabilities,
                default_probability=default_probability,
                minimise=minimise,
                stopper=stopper,
            )[0]
            return outcomes, {
                "incremental": {
                    "blocks_reused": 0,
                    "blocks_computed": len(outcomes),
                }
            }
        graph_key = structural_hash(graph)
        params_key = (
            None if probabilities is None else tuple(probabilities),
            default_probability,
            minimise,
        )
        keys = [
            (graph_key, params_key, block_rounds, _seed_key(block_seed))
            for block_rounds, block_seed in zip(plan.rounds, plan.seeds)
        ]
        cached: list[Optional[BlockOutcome]] = [
            self._blocks.get(key) for key in keys
        ]
        missing = [i for i, outcome in enumerate(cached) if outcome is None]
        reused = len(plan) - len(missing)

        if stopper is None and self.fanout > 1 and len(missing) > 1:
            # Fan the misses out as their own sub-plan; worker-side
            # run_block calls are identical to the inline ones, so the
            # cached entries they produce are too.
            check_cancelled()
            sub_plan = BlockPlan(
                rounds=tuple(plan.rounds[i] for i in missing),
                seeds=tuple(plan.seeds[i] for i in missing),
            )
            computed = self.pool.run_plan(
                graph,
                sub_plan,
                probabilities=probabilities,
                default_probability=default_probability,
                minimise=minimise,
            )
            for i, outcome in zip(missing, computed):
                self._blocks.put(keys[i], outcome)
                cached[i] = outcome
            return list(cached), {
                "incremental": {
                    "blocks_reused": reused,
                    "blocks_computed": len(missing),
                },
                "pool": self.pool.stats(),
            }

        compiled = self.compile(graph)
        outcomes: list[BlockOutcome] = []
        computed_count = 0
        reused_count = 0
        for index, (block_rounds, block_seed) in enumerate(
            zip(plan.rounds, plan.seeds)
        ):
            check_cancelled()
            outcome = cached[index]
            if outcome is None:
                outcome = run_block(
                    compiled,
                    block_rounds,
                    np.random.default_rng(block_seed),
                    probabilities=probabilities,
                    default_probability=default_probability,
                    minimise=minimise,
                )
                self._blocks.put(keys[index], outcome)
                computed_count += 1
            else:
                reused_count += 1
            outcomes.append(outcome)
            if stopper is not None and stopper.observe(outcome):
                break
        return outcomes, {
            "incremental": {
                "blocks_reused": reused_count,
                "blocks_computed": computed_count,
            }
        }

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
        from repro.core.audit import SIAAuditor

        auditor = SIAAuditor(depdb, weigher=weigher, engine=self)
        graph = auditor.build_graph(spec)
        audit, _hit = self.audit_built(auditor, graph, spec)
        return audit

    def audit_built(
        self, auditor, graph: FaultGraph, spec: AuditSpec
    ) -> tuple:
        """Audit an already-built graph through the result cache.

        Returns ``(audit, hit)`` — the public hook
        :func:`repro.api.execute_request` uses, so the audit service's
        repeat executions of one request become result-cache hits.
        """
        from repro.core.spec import RGAlgorithm

        if spec.algorithm is RGAlgorithm.SAMPLING and spec.seed is None:
            # A seedless sampling audit draws fresh OS entropy on every
            # cold run, so no cached result is "bit-identical to a cold
            # recomputation" — always recompute, never cache.
            return auditor.audit_graph(graph, spec), False
        key = (structural_hash(graph), self.block_size, _spec_audit_key(spec))
        audit = self._audits.get(key)
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
        snapshot before auditing: an unchanged store re-audited with
        unchanged parameters is exactly a result-cache hit (the cache
        key — structural hash + audit parameters — is a pure function
        of the record set), so the drift check and the reuse decision
        can never disagree.  After the audit, a snapshot of the audited
        state is recorded (labelled with the graph's structural hash
        unless ``label`` is given) so the *next* call diffs against this
        audit, and so a later request can name the label as its ``base``.
        """
        from repro.core.audit import SIAAuditor

        content = depdb.content_hash()
        last = depdb.last_snapshot()
        previous = None if last is None else last.digest
        auditor = SIAAuditor(depdb, weigher=weigher, engine=self)
        graph = auditor.build_graph(spec)
        digest = structural_hash(graph)
        audit, hit = self.audit_built(auditor, graph, spec)
        snapshot = None
        if record_snapshot:
            snapshot = depdb.snapshot(label or digest)
        return StoreAuditOutcome(
            audit=audit,
            structural_hash=digest,
            content_hash=content,
            previous=previous,
            changed=previous is None or previous != content,
            cache_hit=hit,
            snapshot=snapshot,
        )

    @staticmethod
    def _job_weigher(job: AuditJob):
        from repro.failures import uniform_weigher

        if job.probability is None:
            return None
        return uniform_weigher(job.probability)

    def _audit_jobs_cached(
        self, jobs: Sequence[AuditJob], graphs: Optional[dict] = None
    ) -> tuple[list[DeploymentAudit], list[str], list[str]]:
        """Audit jobs in-process through the caches, tracking reuse."""
        from repro.core.audit import SIAAuditor

        audits: list[DeploymentAudit] = []
        reused: list[str] = []
        recomputed: list[str] = []
        for job in jobs:
            auditor = SIAAuditor(
                job.depdb, weigher=self._job_weigher(job), engine=self
            )
            graph = (
                graphs[job.spec.deployment]
                if graphs is not None
                else auditor.build_graph(job.spec)
            )
            check_cancelled()
            audit, hit = self.audit_built(auditor, graph, job.spec)
            audits.append(audit)
            (reused if hit else recomputed).append(job.spec.deployment)
        return audits, reused, recomputed

    def audit_full(
        self,
        specs: SpecSource,
        title: str = "incremental audit",
        client: str = "",
    ) -> AuditReport:
        """Audit a whole spec set (cold or warm) into one report.

        The report's ``deployments`` are bit-identical to
        :meth:`AuditEngine.audit_many` over the same specs.
        """
        jobs = load_spec_set(specs)
        if not jobs:
            raise SpecificationError("no audit jobs given")
        _require_single_ranking(jobs)
        audits, reused, recomputed = self._audit_jobs_cached(jobs)
        return AuditReport(
            title=title,
            audits=audits,
            ranking_method=jobs[0].spec.ranking,
            client=client,
            metadata={
                "engine": {"workers": self.n_workers, "incremental": True},
                "reused": reused,
                "recomputed": recomputed,
            },
        )

    # ------------------------------------------------------------------ #
    # Delta auditing
    # ------------------------------------------------------------------ #

    def _build_graph(self, job: AuditJob) -> FaultGraph:
        from repro.core.audit import SIAAuditor

        return SIAAuditor(
            job.depdb, weigher=self._job_weigher(job), engine=self
        ).build_graph(job.spec)

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
        the built graph of the same-named job in ``new`` (WatchService
        proves this with file snapshots).  The returned report is
        bit-identical to a cold :meth:`audit_full` of ``new``.
        """
        started = time.perf_counter()
        new_jobs = load_spec_set(new)
        if not new_jobs:
            raise SpecificationError("no audit jobs given")
        _require_single_ranking(new_jobs)
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
        audits, reused, recomputed = self._audit_jobs_cached(
            new_jobs, graphs=new_graphs
        )
        report = AuditReport(
            title=title,
            audits=audits,
            ranking_method=new_jobs[0].spec.ranking,
            client=client,
            metadata={
                "engine": {"workers": self.n_workers, "incremental": True},
                "reused": list(reused),
                "recomputed": list(recomputed),
                "delta": delta.to_dict(),
            },
        )
        return DeltaAuditReport(
            report=report,
            delta=delta,
            reused=tuple(reused),
            recomputed=tuple(recomputed),
            elapsed_seconds=time.perf_counter() - started,
            metadata={"caches": self.cache_info()},
            new_graphs=new_graphs,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def cache_info(self) -> dict:
        return {
            "graphs": self.cache.info(),
            "blocks": self._blocks.info(),
            "audits": self._audits.info(),
        }

    def info(self) -> dict:
        info = super().info()
        info["incremental"] = self.cache_info()
        return info


# --------------------------------------------------------------------- #
# The watch service
# --------------------------------------------------------------------- #


class WatchService:
    """Long-running incremental auditor over a spec directory.

    Each iteration reloads the directory's ``*.json`` deployment specs,
    delta-audits them against the previous iteration's set (the caches
    stay warm inside the shared :class:`DeltaAuditEngine`), and produces
    one JSON-serialisable report dict.  Spec errors (half-written files,
    an emptied directory) are reported, not fatal — the service keeps
    polling.

    Each emitted line is a canonical ``repro.api`` event (the same field
    names as the audit server's job event stream): ``kind="event"``,
    ``event="iteration"`` (or ``"error"``), ``seq``, ``elapsed_seconds``
    and the iteration payload.

    Args:
        directory: Directory of ``audit-many``-style spec files.
        engine: Shared delta engine (a private one is created otherwise).
        interval: Seconds to sleep between polls in :meth:`run`.
        title: Report title used for every iteration.
        include_report: Embed the full audit report dict in every
            iteration (the compact stream of ``indaas watch`` turns this
            off — in the warm steady state, serialising the report is
            most of a poll's work).
        sleep: Injectable sleep function (tests pass a no-op).  The
            default sleeps on the stop event, so :meth:`request_stop`
            interrupts an in-progress interval immediately.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        engine: Optional[DeltaAuditEngine] = None,
        interval: float = 2.0,
        title: str = "indaas watch",
        include_report: bool = True,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if interval < 0:
            raise SpecificationError(f"interval must be >= 0, got {interval}")
        self.directory = Path(directory)
        if engine is None:
            engine = DeltaAuditEngine()
        # A base AuditEngine is welcome too: .delta() hands back its
        # incremental companion (and is a no-op on a DeltaAuditEngine).
        self.engine = engine.delta()
        self.interval = interval
        self.title = title
        self.include_report = include_report
        self.iterations = 0
        self._stop = threading.Event()
        self._sleep = sleep
        self._previous: Optional[tuple[AuditJob, ...]] = None
        self._previous_graphs: dict = {}
        #: Per spec file: {"snapshot": ((mtime_ns, size) of the spec and
        #: its DepDB), "job": parsed AuditJob, "graph": built FaultGraph
        #: or None} — the steady-state poll's proof that re-parsing (and
        #: re-building the graph) can be skipped for files that did not
        #: move on disk.  The graph is written only after a *successful*
        #: audit of exactly that job (see :meth:`run_once`), so an
        #: errored iteration can never pair a file with a graph built
        #: from different content.
        self._file_cache: dict = {}

    @staticmethod
    def _snapshot(path: Path) -> Optional[tuple[int, int]]:
        try:
            stat = path.stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _load_jobs(self) -> tuple[tuple[AuditJob, ...], dict]:
        """Load the directory, re-parsing only files that changed.

        Returns the job tuple plus ``{deployment: graph}`` for jobs
        whose spec *and* DepDB files are byte-stable since the previous
        iteration — safe to hand to ``audit_delta(prebuilt_graphs=...)``.
        """
        if not self.directory.is_dir():
            raise SpecificationError(f"{self.directory} is not a directory")
        paths = sorted(
            p for p in self.directory.glob("*.json") if p.is_file()
        )
        jobs: list[AuditJob] = []
        stable_graphs: dict = {}
        fresh_cache: dict = {}
        for path in paths:
            # Snapshots are taken *before* parsing: a write racing the
            # parse leaves a pre-write snapshot behind, so the next poll
            # re-parses instead of trusting a torn read.
            spec_snap = self._snapshot(path)
            cached = self._file_cache.get(path)
            if (
                cached is not None
                and spec_snap is not None
                and cached["snapshot"][0] == spec_snap
                and self._snapshot(Path(cached["job"].metadata["depdb"]))
                == cached["snapshot"][1]
            ):
                job = cached["job"]
                snapshot = cached["snapshot"]
                graph = cached["graph"]
                if graph is not None:
                    # Built from this exact job after a successful audit
                    # — the only pairing that is safe to hand back.
                    stable_graphs[job.spec.deployment] = graph
            else:
                # Read and parse once; stat the DepDB *before*
                # load_audit_job consumes the same payload, for the same
                # torn-read reason as the spec snapshot above.
                depdb_snap, payload = None, None
                try:
                    parsed = json.loads(path.read_text(encoding="utf-8"))
                    if isinstance(parsed, dict):
                        payload = parsed
                        if isinstance(parsed.get("depdb"), str):
                            depdb_snap = self._snapshot(
                                path.parent / parsed["depdb"]
                            )
                except (OSError, json.JSONDecodeError):
                    pass  # load_audit_job raises the clean error below
                job = load_audit_job(path, payload=payload)
                snapshot = (spec_snap, depdb_snap)
                graph = None
            if snapshot[0] is not None and snapshot[1] is not None:
                fresh_cache[path] = {
                    "snapshot": snapshot,
                    "job": job,
                    "graph": graph,
                }
            jobs.append(job)
        self._file_cache = fresh_cache
        if not jobs:
            raise SpecificationError("no deployment spec files found")
        return load_spec_set(jobs), stable_graphs

    def request_stop(self) -> None:
        """Ask :meth:`run` to exit after the current iteration.

        Thread- and signal-safe; with the default sleeper it also wakes
        a loop that is mid-interval, so shutdown latency is bounded by
        one poll, not ``interval``.
        """
        self._stop.set()

    @property
    def stopping(self) -> bool:
        """Whether :meth:`request_stop` has been called."""
        return self._stop.is_set()

    def run_once(self) -> dict:
        """Poll the directory once and return the iteration event."""
        from repro import api

        self.iterations += 1
        started = time.perf_counter()
        try:
            jobs, stable_graphs = self._load_jobs()
            outcome = self.engine.audit_delta(
                self._previous,
                jobs,
                title=self.title,
                old_graphs=self._previous_graphs,
                prebuilt_graphs=stable_graphs,
            )
        except IndaasError as exc:
            # A half-written spec/DepDB or an emptied directory is an
            # iteration-level event, not a reason to die; the next poll
            # retries.  (IndaasError covers every domain error here:
            # spec, dependency-data, graph and analysis failures.)
            return api.job_event(
                "error",
                seq=self.iterations,
                directory=str(self.directory),
                error=str(exc),
                elapsed_seconds=time.perf_counter() - started,
            )
        self._previous = jobs
        self._previous_graphs = outcome.new_graphs
        # Only now — after the audit of exactly these jobs succeeded —
        # may each file's cache entry adopt its graph for reuse.
        for entry in self._file_cache.values():
            entry["graph"] = outcome.new_graphs.get(
                entry["job"].spec.deployment
            )
        ranked = outcome.report.ranked_deployments()
        return api.job_event(
            "iteration",
            seq=self.iterations,
            directory=str(self.directory),
            deployments=len(jobs),
            delta=outcome.delta.to_dict(),
            reused=list(outcome.reused),
            recomputed=list(outcome.recomputed),
            regressions=[
                audit.deployment
                for audit in ranked
                if audit.has_unexpected_risk_groups
            ],
            scores={audit.deployment: audit.score for audit in ranked},
            best=ranked[0].deployment,
            elapsed_seconds=outcome.elapsed_seconds,
            **(
                {"report": outcome.report.to_dict()}
                if self.include_report
                else {}
            ),
        )

    def run(
        self,
        iterations: Optional[int] = None,
        emit: Optional[Callable[[dict], None]] = None,
    ) -> int:
        """Run the poll loop; returns the number of iterations executed.

        Args:
            iterations: Stop after this many polls (None = run until
                interrupted or :meth:`request_stop` is called).
            emit: Callback receiving each iteration's event dict.
        """
        if iterations is not None and iterations < 1:
            raise SpecificationError(
                f"iterations must be >= 1, got {iterations}"
            )
        done = 0
        while iterations is None or done < iterations:
            if self._stop.is_set():
                break
            report = self.run_once()
            done += 1
            if emit is not None:
                emit(report)
            is_last = iterations is not None and done >= iterations
            if not is_last and self.interval > 0 and not self._stop.is_set():
                if self._sleep is not None:
                    self._sleep(self.interval)
                else:
                    self._stop.wait(self.interval)
        return done
