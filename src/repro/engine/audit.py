"""Structural Independence Auditing — SIA (§4.1).

The :class:`SIAAuditor` is the auditing agent's core: it turns dependency
data (a :class:`~repro.depdb.database.DepDB`) plus an audit specification
into a ranked :class:`~repro.core.report.AuditReport`:

1. build the dependency graph at the requested level of detail,
2. determine risk groups (minimal-RG or failure-sampling algorithm),
3. rank them (size- or probability-based),
4. compute independence scores and assemble the report.

It lives in the engine package because its sampling algorithm runs only
through :meth:`~repro.engine.facade.AuditEngine.sample_spec`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.builder import Weigher, build_dependency_graph
from repro.core.componentset import component_sets_from_graph
from repro.core.faultgraph import FaultGraph
from repro.core.minimal_rg import (
    CutSetExplosion,
    _bdd_minimal_risk_groups,
)
from repro.core.probability import union_probability
from repro.core.ranking import (
    RankingMethod,
    independence_score,
    rank_risk_groups,
)
from repro.core.report import AuditReport, DeploymentAudit
from repro.core.spec import AuditSpec, DetailLevel, RGAlgorithm
from repro.depdb.database import DepDB
from repro.errors import AnalysisError, FaultGraphError, SpecificationError

if TYPE_CHECKING:  # pragma: no cover - typing only, the facade imports us
    from repro.engine.facade import AuditEngine

__all__ = ["SIAAuditor"]


def _top_probability(groups, probabilities, diagram) -> float:
    """Pr(T): the walk of the graph's diagram when the audit is exact
    (under ``max_order`` too, so the untruncated graph's value), else the
    union over the sampled family, which may raise
    :class:`CutSetExplosion`."""
    if diagram is not None:
        return diagram.probability(probabilities)
    return union_probability(groups, probabilities)


class SIAAuditor:
    """Auditing agent logic for the trusted, full-data scenario (§4.1).

    Args:
        depdb: The dependency data collected from all data sources.
        weigher: Optional failure-probability source for leaf events
            (see :mod:`repro.failures` for realistic models).
        engine: Optional :class:`~repro.engine.AuditEngine`.  When given,
            sampling audits run through its compilation cache and fan
            their blocks out over its worker pool; without one, each
            sampling audit runs on a fresh inline ``AuditEngine()``.
    """

    def __init__(
        self,
        depdb: DepDB,
        weigher: Optional[Weigher] = None,
        engine: Optional[AuditEngine] = None,
    ):
        self.depdb = depdb
        self.weigher = weigher
        self.engine = engine

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #

    def build_graph(self, spec: AuditSpec) -> FaultGraph:
        """Build the deployment's dependency graph per the spec's level."""
        graph = build_dependency_graph(
            self.depdb,
            spec.servers,
            deployment=spec.deployment,
            required=spec.required,
            programs=spec.programs,
            destinations=spec.destinations,
            include_host_events=spec.include_host_events,
            weigher=self.weigher,
        )
        if spec.level is DetailLevel.FAULT_GRAPH:
            return graph
        # Downgrade (§4.1.1): flatten each server's subtree to a flat set.
        sets = component_sets_from_graph(graph)
        flat = sets.to_fault_graph(name=graph.name)
        if spec.level is DetailLevel.COMPONENT_SET:
            return flat
        # FAULT_SET keeps the weights the weigher assigned, if any.
        for leaf in flat.basic_events():
            if leaf in graph:
                flat.set_probability(leaf, graph.probability_of(leaf))
        return flat

    # ------------------------------------------------------------------ #
    # Auditing
    # ------------------------------------------------------------------ #

    def audit_deployment(self, spec: AuditSpec) -> DeploymentAudit:
        """Run the full SIA pipeline for one candidate deployment."""
        return self.audit_graph(self.build_graph(spec), spec)

    def audit_graph(self, graph: FaultGraph, spec: AuditSpec) -> DeploymentAudit:
        """Steps 2–4 of the pipeline on an already-built graph.

        Split from :meth:`audit_deployment` so the engine's result cache
        (:meth:`~repro.engine.facade.AuditEngine.audit_built`) can build
        the graph once, key the cache by its structural hash, and only
        then decide whether this computation needs to run at all.
        """
        notes: list[str] = []
        # An exact audit keeps the diagram its groups came from and reads
        # Pr(T) off it; a sampled audit has only its family.
        diagram = None

        if spec.algorithm is RGAlgorithm.MINIMAL:
            groups, diagram = _bdd_minimal_risk_groups(
                graph, graph.top, spec.max_order
            )
            if spec.max_order is not None:
                notes.append(f"cut sets truncated at order {spec.max_order}")
        else:
            engine = self.engine
            if engine is None:
                # Imported here: the facade imports this module.
                from repro.engine.facade import AuditEngine

                engine = AuditEngine()
            result = engine.sample_spec(graph, spec)
            groups = result.risk_groups
            # The note deliberately omits engine/worker details: results
            # (and therefore reports) are identical for any worker
            # count.  ``result.rounds`` is the honest executed count —
            # equal to spec.sampling_rounds in exact mode, possibly
            # smaller under spec.adaptive.
            notes.append(
                f"failure sampling: {result.rounds} rounds, "
                f"{result.top_failures} top failures, "
                f"{len(groups)} risk groups"
            )
            if spec.adaptive and result.rounds < spec.sampling_rounds:
                notes.append(
                    f"adaptive early stop: {result.rounds} of "
                    f"{spec.sampling_rounds} budgeted rounds"
                )
        if not groups:
            raise AnalysisError(
                f"no risk groups found for {spec.deployment!r}; "
                f"increase sampling rounds or check the graph"
            )

        if spec.ranking is RankingMethod.PROBABILITY:
            probabilities = graph.probabilities()
            failure_probability = _top_probability(
                groups, probabilities, diagram
            )
            ranking = rank_risk_groups(
                groups,
                spec.ranking,
                probabilities=probabilities,
                top_probability=failure_probability,
            )
        else:
            ranking = rank_risk_groups(groups, spec.ranking)
            failure_probability = self._try_failure_probability(
                graph, groups, diagram
            )

        score = independence_score(ranking, spec.ranking, top_n=spec.top_n)
        return DeploymentAudit(
            deployment=spec.deployment,
            sources=spec.servers,
            redundancy=spec.redundancy,
            ranking=ranking,
            score=score,
            ranking_method=spec.ranking,
            failure_probability=failure_probability,
            graph_stats=graph.stats(),
            notes=notes,
        )

    def _try_failure_probability(self, graph, groups, diagram) -> Optional[float]:
        """Best-effort Pr(T): ``None`` when weights are missing, or when a
        sampled family outgrows the union's work budget."""
        try:
            return _top_probability(groups, graph.probabilities(), diagram)
        except (FaultGraphError, CutSetExplosion):
            return None

    def component_importance(self, spec: AuditSpec, top: int = 10):
        """Per-component hardening priorities for one deployment.

        Builds the deployment graph and returns the Birnbaum-ranked
        :class:`~repro.core.importance.ComponentImportance` entries —
        the "fix these first" companion to the RG ranking.  Requires a
        weigher (importance is a probabilistic notion).
        """
        from repro.core.importance import component_importance_ranking

        if self.weigher is None:
            raise AnalysisError(
                "component importance needs failure probabilities; "
                "construct the auditor with a weigher"
            )
        graph = self.build_graph(spec)
        return component_importance_ranking(graph)[:top]

    def audit(
        self,
        specs: Sequence[AuditSpec],
        title: str = "independence audit",
        client: str = "",
    ) -> AuditReport:
        """Audit several candidate deployments and rank them (§4.1.4)."""
        if not specs:
            raise SpecificationError("no audit specs given")
        methods = {s.ranking for s in specs}
        if len(methods) != 1:
            raise SpecificationError(
                "all specs in one report must share a ranking method"
            )
        return AuditReport(
            title=title,
            audits=[self.audit_deployment(spec) for spec in specs],
            ranking_method=specs[0].ranking,
            client=client,
        )

    def compare_combinations(
        self,
        base: AuditSpec,
        candidates: Sequence[str],
        ways: int = 2,
        title: Optional[str] = None,
    ) -> AuditReport:
        """Audit every ``ways``-subset of ``candidates`` under one spec.

        This is the §6.2.1 workflow: enumerate all possible two-way
        deployments and report which is the most independent.
        """
        if ways < 1 or ways > len(candidates):
            raise SpecificationError(
                f"ways={ways} outside 1..{len(candidates)}"
            )
        specs = [
            base.with_servers(combo)
            for combo in itertools.combinations(candidates, ways)
        ]
        return self.audit(specs, title=title or f"all {ways}-way deployments")
