"""Mitigation planning: the "which fix first" question, answered.

§4.1.3 ranks risk groups; :mod:`repro.core.importance` ranks components;
:mod:`repro.analysis.whatif` prices individual fixes.  The
:class:`MitigationPlanner` closes the loop into an operator-facing plan:

1. rank components by importance (Birnbaum, on the baseline BDD),
2. generate one :class:`~repro.analysis.whatif.Harden` and one
   :class:`~repro.analysis.whatif.Duplicate` candidate per top component,
3. evaluate every candidate counterfactually — in parallel across an
   :class:`~repro.engine.AuditEngine`'s workers when one is given, with
   the baseline compilation served from its cache — and
4. emit the candidates ranked by achieved probability reduction, trimmed
   to an optional budget.

The plan is deterministic: candidate generation orders by the importance
ranking (itself sorted with explicit tie-breaks), evaluation preserves
candidate order, and the final sort is stable — so the emitted plan is
bit-identical for any worker count, including none.  Surfaced as the
``indaas plan`` CLI verb and :func:`repro.plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.analysis.whatif import (
    Duplicate,
    Harden,
    Mitigation,
    MitigationOutcome,
    evaluate_mitigations,
)
from repro.core.bdd import BDD, compile_graph
from repro.core.faultgraph import FaultGraph
from repro.core.importance import component_importance_ranking
from repro.core.minimal_rg import DEFAULT_MAX_GROUPS
from repro.errors import AnalysisError
from repro.schema import envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.facade import AuditEngine

__all__ = ["MitigationPlan", "MitigationPlanner"]

#: Default factor a Harden candidate scales a component's probability by.
DEFAULT_HARDEN_FACTOR = 0.1


def _describe_mitigation(mitigation: Mitigation) -> dict:
    """JSON-ready identity of one candidate (kind + parameters)."""
    if isinstance(mitigation, Harden):
        return {
            "kind": "harden",
            "component": mitigation.component,
            "probability": mitigation.probability,
        }
    return {
        "kind": "duplicate",
        "component": mitigation.component,
        "replica_probability": mitigation.replica_probability,
    }


@dataclass
class MitigationPlan:
    """A ranked, budget-trimmed list of evaluated mitigations."""

    deployment: str
    baseline_probability: float
    baseline_unexpected: int
    outcomes: list[MitigationOutcome]
    considered: int
    budget: Optional[int] = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Full-precision JSON form (the worker-invariance witness)."""
        return envelope("mitigation_plan", self._payload())

    def _payload(self) -> dict:
        return {
            "deployment": self.deployment,
            "baseline_probability": self.baseline_probability,
            "baseline_unexpected": self.baseline_unexpected,
            "considered": self.considered,
            "budget": self.budget,
            "plan": [
                {
                    "rank": rank,
                    "mitigation": _describe_mitigation(outcome.mitigation),
                    "probability_after": outcome.probability_after,
                    "absolute_reduction": outcome.absolute_reduction,
                    "relative_reduction": outcome.relative_reduction,
                    "unexpected_after": outcome.unexpected_after,
                }
                for rank, outcome in enumerate(self.outcomes, start=1)
            ],
        }

    def render_text(self) -> str:
        lines = [
            f"mitigation plan for {self.deployment}",
            f"  baseline: Pr(top) = {self.baseline_probability:.4g}, "
            f"{self.baseline_unexpected} unexpected risk group(s)",
            f"  evaluated {self.considered} candidate(s)"
            + (f", budget {self.budget}" if self.budget is not None else ""),
        ]
        for rank, outcome in enumerate(self.outcomes, start=1):
            lines.append(f"  {rank}. {outcome.describe()}")
        return "\n".join(lines)


class MitigationPlanner:
    """Generate, evaluate and rank mitigation candidates for one graph.

    Args:
        graph: The deployment's fault graph; every basic event needs a
            failure probability (planning is a probabilistic notion).
        probabilities: Optional weight overrides (graph weights otherwise).
        redundancy: Expected minimal-RG size for unexpected-RG counting.
        engine: Optional :class:`~repro.engine.AuditEngine` — candidate
            evaluations fan out over its workers and baseline
            compilations come from its cache.  The plan is bit-identical
            with or without one.
    """

    def __init__(
        self,
        graph: FaultGraph,
        probabilities: Optional[Mapping[str, float]] = None,
        redundancy: int = 2,
        engine: Optional["AuditEngine"] = None,
    ) -> None:
        base = dict(probabilities) if probabilities else graph.probabilities()
        self.graph = graph.map_probabilities(
            lambda e: base.get(e.name, e.probability)
        )
        self.graph.probabilities()  # fail fast on unweighted events
        self.redundancy = redundancy
        self.engine = engine
        self._baseline_bdd: Optional[BDD] = None
        self._baseline_groups: Optional[list[frozenset[str]]] = None

    def baseline_bdd(self) -> BDD:
        """The baseline graph's BDD, compiled exactly once.

        Importance ranking, cut-set extraction and the evaluation
        baseline all share this one diagram; with an
        engine it additionally lands in the engine's
        :class:`~repro.engine.cache.GraphCache`.
        """
        if self._baseline_bdd is None:
            self._baseline_bdd = (
                self.engine.compile_bdd(self.graph)
                if self.engine is not None
                else compile_graph(self.graph)
            )
        return self._baseline_bdd

    def baseline_groups(self) -> list[frozenset[str]]:
        """The unmitigated graph's minimal RGs (Fussell–Vesely needs the
        family), read off the baseline diagram exactly once."""
        if self._baseline_groups is None:
            self._baseline_groups = self.baseline_bdd().minimal_cut_sets(
                max_groups=DEFAULT_MAX_GROUPS
            )
        return self._baseline_groups

    def candidates(
        self,
        top_k: int = 5,
        harden_factor: float = DEFAULT_HARDEN_FACTOR,
    ) -> list[Mitigation]:
        """Harden + Duplicate candidates for the ``top_k`` most important
        *viable* components.

        Components come from the Birnbaum-ranked importance table, so the
        sweep spends its budget where the top-event probability is most
        sensitive.  Components whose probability is already 0 generate
        no candidates (nothing to harden, duplication cannot help) and
        do not consume a slot — the walk continues down the ranking
        until ``top_k`` viable components are found or it runs out.
        """
        if top_k < 1:
            raise AnalysisError(f"top_k must be >= 1, got {top_k}")
        if not 0.0 <= harden_factor < 1.0:
            raise AnalysisError(
                f"harden_factor must be in [0,1), got {harden_factor}"
            )
        ranking = component_importance_ranking(
            self.graph,
            minimal_rgs=self.baseline_groups(),
            bdd=self.baseline_bdd(),
        )
        out: list[Mitigation] = []
        taken = 0
        for entry in ranking:
            if taken == top_k:
                break
            if entry.probability <= 0.0:
                continue
            out.append(
                Harden(entry.component, entry.probability * harden_factor)
            )
            out.append(Duplicate(entry.component))
            taken += 1
        if not out:
            raise AnalysisError(
                "no viable mitigation candidates: every ranked component "
                "already has probability 0"
            )
        return out

    def plan(
        self,
        top_k: int = 5,
        budget: Optional[int] = None,
        harden_factor: float = DEFAULT_HARDEN_FACTOR,
    ) -> MitigationPlan:
        """Evaluate candidates and emit the ranked plan.

        Args:
            top_k: Components (by importance) to generate candidates for.
            budget: Keep only the best this-many mitigations in the plan
                (``None`` keeps every evaluated candidate).
            harden_factor: Factor Harden candidates scale probabilities by.
        """
        if budget is not None and budget < 1:
            raise AnalysisError(f"budget must be >= 1, got {budget}")
        candidates = self.candidates(top_k=top_k, harden_factor=harden_factor)
        outcomes = evaluate_mitigations(
            self.graph,
            candidates,
            redundancy=self.redundancy,
            engine=self.engine,
            baseline_bdd=self.baseline_bdd(),
        )
        kept = outcomes if budget is None else outcomes[:budget]
        return MitigationPlan(
            deployment=self.graph.name or "deployment",
            baseline_probability=outcomes[0].probability_before,
            baseline_unexpected=outcomes[0].unexpected_before,
            outcomes=kept,
            considered=len(candidates),
            budget=budget,
            metadata={"top_k": top_k, "harden_factor": harden_factor},
        )
