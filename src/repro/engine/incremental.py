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
  whose auditing path runs through a content-addressed *result cache*
  keyed by structural hash + audit parameters.  A cached audit is
  reused **only** when the key proves the cold computation would be
  bit-identical, so every result the delta engine returns equals a cold
  full audit of the same input — reuse can change wall-clock time,
  never bytes.
* :meth:`DeltaAuditEngine.audit_delta` — diff two deployment spec sets,
  re-audit only deployments whose fault graph (or audit parameters)
  actually changed, and serve the untouched ones from cache, reporting
  exactly what was reused and why.

What is (and is not) reusable, bit-identically
----------------------------------------------

A sampling block's outcome is a pure function of ``(graph structure,
block seed, block rounds, sampling parameters)`` — the per-block RNG
stream starts from the block's own ``SeedSequence`` child and its
consumption depends on the graph's basic-event layout.  Any structural
change therefore changes the stream, so a changed graph can never reuse
the old graph's blocks and still match a cold audit — which is why
there is no block-level cache here: it could only hit where the graph
did *not* drift, and that is a result-cache hit already.  What *can* be
reused, and is:

* whole deployments whose graph hash and audit parameters are unchanged
  (the dominant win: drift touches a few components, which touches the
  deployments that depend on them and no others) — including a reverted
  graph (config flap back to a previously audited structure);
* compiled array/BDD forms for any graph structure seen before (the
  shared :class:`~repro.engine.cache.GraphCache`).

The result cache lives in this process: deployments of a set are audited
one after another through it (the uncached process fan-out is
:meth:`AuditEngine.audit_jobs`), and a miss samples exactly as the base
engine does — :meth:`AuditEngine.sample`, inline or through its pool.
Worker counts never change results — see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.audit import SIAAuditor
from repro.core.faultgraph import FaultGraph
from repro.core.report import AuditReport, DeploymentAudit
from repro.core.spec import AuditSpec, RGAlgorithm
from repro.engine.cache import GraphCache, LRUCache, structural_hash
from repro.engine.facade import AuditEngine, check_cancelled
from repro.engine.specset import (
    AuditJob,
    SpecSource,
    load_report_jobs,
    load_spec_set,
)

__all__ = [
    "GraphDelta",
    "graph_delta",
    "DeploymentChange",
    "SpecSetDelta",
    "DeltaAuditReport",
    "DeltaAuditEngine",
    "StoreAuditOutcome",
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
        # of the watch service, which recycles unchanged files' graphs.
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
# The result-cache key
# --------------------------------------------------------------------- #


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
        spec.adaptive,
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
            ``record_snapshot=False``, or when the store drifted while
            the audit ran).
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
    #: Built fault graphs by deployment name — feed back into the next
    #: ``audit_delta(old_graphs=...)`` call to skip rebuilding the old
    #: side of the diff (what ``indaas watch`` does every poll).
    new_graphs: dict = field(default_factory=dict, repr=False)


# --------------------------------------------------------------------- #
# The delta engine
# --------------------------------------------------------------------- #


class DeltaAuditEngine(AuditEngine):
    """An :class:`AuditEngine` with one content-addressed result cache.

    Args:
        n_workers: Worker processes, exactly as for the base engine
            (the result cache itself always lives in this process).  As
            everywhere, the worker count never changes results.
        block_size: Sampling rounds per block (part of the stream
            definition, exactly as for the base engine).
        cache: Optional shared :class:`GraphCache`.
        max_cached_audits: LRU capacity of the deployment-audit cache.
        pool: Optional shared worker pool, as for the base engine.

    Sampling *is* the base engine's (:meth:`AuditEngine.sample`, not
    overridden); auditing shares this process's warm result cache across
    repeated calls, and a cached audit is bit-identical to the base
    engine's cold one for the same seed and block size.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        block_size: int = 4096,
        cache: Optional[GraphCache] = None,
        max_cached_audits: int = 1024,
        pool=None,
    ) -> None:
        super().__init__(
            n_workers=n_workers, block_size=block_size, cache=cache, pool=pool
        )
        self._audits = LRUCache(max_cached_audits)

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

        Returns ``(audit, hit)`` — the public hook
        :func:`repro.api.execute_request` uses, so the audit service's
        repeat executions of one request become result-cache hits.
        """
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
        A store that drifted while it was being audited (another thread
        or process ingested) is left unsnapshotted — the state that was
        audited is gone, and marking the new one audited would make the
        next call report ``changed=False`` for records nobody audited.
        """
        content = depdb.content_hash()
        last = depdb.last_snapshot()
        previous = None if last is None else last.digest
        auditor = SIAAuditor(depdb, weigher=weigher, engine=self)
        graph = auditor.build_graph(spec)
        digest = structural_hash(graph)
        audit, hit = self.audit_built(auditor, graph, spec)
        snapshot = None
        if record_snapshot and depdb.content_hash() == content:
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
        :meth:`AuditEngine.audit_jobs` over ``new``.
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

    def cache_info(self) -> dict:
        return {
            "graphs": self.cache.info(),
            "audits": self._audits.info(),
        }

    def info(self) -> dict:
        info = super().info()
        info["incremental"] = self.cache_info()
        return info
