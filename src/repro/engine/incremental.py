"""Incremental (delta) auditing — the diff and its value types.

INDaaS is a *service*: dependency data changes continuously (AID and the
follow-up cloud-reliability literature measure constant drift), so the
auditor must not re-pay full fault-graph compilation and sampling on
every small change.  The re-auditing itself is
:class:`~repro.engine.facade.AuditEngine`'s content-addressed *result
cache* (``audit_built`` and the ``audit_spec`` / ``audit_store`` /
``audit_delta`` calls above it); this module holds what that cache is
keyed and reported by, without ever bending the determinism contract:

* :func:`graph_delta` — structural diff between two fault graphs
  (events added / removed / re-wired, probabilities changed) plus the
  *affected cone*: every changed event and all of its ancestors up to
  the top event.  An empty delta is exactly equivalent to an unchanged
  :func:`~repro.engine.cache.structural_hash`.
* :func:`_spec_audit_key` — the audit parameters the result-cache key
  pairs with the structural hash.  A cached audit is reused **only**
  when the key proves the cold computation would be bit-identical, so
  reuse can change wall-clock time, never bytes.
* :func:`_spec_store_key` — the whole spec, graph-shaping fields
  included, for ``audit_store``'s index *(store, content hash, spec,
  weigher)* → structural hash, which finds an unchanged store's audit
  in that cache without building its graph.  The store is in the key
  because the content hash ignores record order and the graph does
  not; one append-only store has one order per content hash.
* :class:`SpecSetDelta`, :class:`DeploymentChange`,
  :class:`DeltaAuditReport` and :class:`StoreAuditOutcome` — what a
  spec-set or store re-audit reports: which deployments changed, what
  was reused and why.

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

The result cache lives in the engine's process: deployments of a set
are audited one after another through it (the uncached process fan-out
is :meth:`AuditEngine.audit_jobs`), and a miss samples exactly as any
audit does — :meth:`AuditEngine.sample`, inline or through the pool.
Worker counts never change results — see DESIGN.md.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from repro.core.faultgraph import FaultGraph
from repro.core.report import AuditReport, DeploymentAudit
from repro.core.spec import AuditSpec

__all__ = [
    "GraphDelta",
    "graph_delta",
    "DeploymentChange",
    "SpecSetDelta",
    "DeltaAuditReport",
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


def _spec_store_key(spec: AuditSpec) -> tuple:
    """Every :class:`AuditSpec` field but ``metadata``, as a hashable value.

    :func:`_spec_audit_key` plus the graph-shaping fields it leaves to
    the structural hash, so the store index of
    :meth:`~repro.engine.facade.AuditEngine.audit_store` can stand in
    for the graph.  ``programs`` is frozen in its given order, a mapping
    as ``(host, programs)`` pairs.
    """
    programs = spec.programs
    if isinstance(programs, Mapping):
        programs = ("per-host",) + tuple(
            (host, tuple(names)) for host, names in programs.items()
        )
    elif programs is not None:
        programs = ("global",) + tuple(programs)
    return _spec_audit_key(spec) + (
        spec.level.value,
        programs,
        spec.destinations,
        spec.include_host_events,
    )


# --------------------------------------------------------------------- #
# Store-backed delta audits
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class StoreAuditOutcome:
    """One :meth:`AuditEngine.audit_store` result with drift proof.

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
