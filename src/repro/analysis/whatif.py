"""What-if analysis: quantify mitigations before paying for them.

An auditing report tells an operator *where* the correlated-failure risk
is; the natural next question is "which fix buys the most reliability?".
This module evaluates candidate mitigations counterfactually on the
dependency graph:

* :class:`Harden` — reduce one component's failure probability (better
  hardware, patched package, maintenance contract);
* :class:`Duplicate` — add an independent replica of a component, so
  the original fails the system only together with its twin (the
  fault-graph transformation of "buy a second aggregation switch");
* :func:`evaluate_mitigations` — score the graph under each mitigation
  and rank them by top-event probability reduction.

Either mitigation only changes its component's effective weight, so a
what-if sweep compiles the baseline graph once and walks its diagram once
per candidate under the changed weight; the input graph is never
mutated.  The replicated-service availability model of arXiv:2306.13334
gives the laws the tests hold this to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.bdd import BDD, compile_graph
from repro.core.events import validate_probability
from repro.core.faultgraph import FaultGraph
from repro.core.minimal_rg import DEFAULT_MAX_GROUPS, unexpected_risk_groups
from repro.errors import AnalysisError

__all__ = ["Harden", "Duplicate", "MitigationOutcome", "evaluate_mitigations"]


def _basic_weight(graph: FaultGraph, component: str, verb: str) -> float:
    """``component``'s weight, once it is known to be a basic event."""
    if component not in graph:
        raise AnalysisError(f"unknown component {component!r}")
    if not graph.is_basic(component):
        raise AnalysisError(
            f"{component!r} is a gate; {verb} basic components"
        )
    return graph.probability_of(component)


@dataclass(frozen=True)
class Harden:
    """Reduce a component's failure probability to ``probability``."""

    component: str
    probability: float

    def describe(self) -> str:
        return f"harden {self.component} (p -> {self.probability:g})"

    def weight(self, graph: FaultGraph) -> float:
        """The component's weight once hardened."""
        current = _basic_weight(graph, self.component, "harden")
        new = validate_probability(self.probability)
        if new > current:
            raise AnalysisError(
                f"hardening {self.component!r} must not raise its "
                f"probability ({current} -> {new})"
            )
        return new


@dataclass(frozen=True)
class Duplicate:
    """Add an independent replica of a component.

    Every gate that referenced the component now depends on *both* the
    original and the replica failing (an AND of the two), modelling a
    hot standby.  The replica inherits the original's probability unless
    ``replica_probability`` is given.
    """

    component: str
    replica_probability: Optional[float] = None

    def describe(self) -> str:
        return f"duplicate {self.component}"

    def weight(self, graph: FaultGraph) -> float:
        """The weight of "the component and its replica both fail"."""
        original = _basic_weight(graph, self.component, "duplicate")
        replica = (
            original
            if self.replica_probability is None
            else validate_probability(self.replica_probability)
        )
        return original * replica


Mitigation = Union[Harden, Duplicate]


@dataclass
class MitigationOutcome:
    """Effect of one mitigation on the deployment."""

    mitigation: Mitigation
    probability_before: float
    probability_after: float
    unexpected_before: int
    unexpected_after: int

    @property
    def absolute_reduction(self) -> float:
        return self.probability_before - self.probability_after

    @property
    def relative_reduction(self) -> float:
        if self.probability_before == 0.0:
            return 0.0
        return self.absolute_reduction / self.probability_before

    def describe(self) -> str:
        return (
            f"{self.mitigation.describe()}: Pr "
            f"{self.probability_before:.4g} -> {self.probability_after:.4g} "
            f"(-{self.relative_reduction:.1%}), unexpected RGs "
            f"{self.unexpected_before} -> {self.unexpected_after}"
        )


def evaluate_mitigations(
    graph: FaultGraph,
    mitigations: Sequence[Mitigation],
    redundancy: int = 2,
    baseline_bdd: Optional[BDD] = None,
) -> list[MitigationOutcome]:
    """Rank candidate mitigations by top-event probability reduction.

    A mitigation changes one component's effective weight and nothing
    else: a Harden sets it, and a Duplicate turns "c fails" into "c and
    its replica fail", which every minimal RG holding c gains one member
    for.  So each candidate is one walk of the baseline diagram, and its
    unexpected-RG count is read off the baseline's groups below
    ``redundancy``, enumerated once.

    Args:
        graph: The deployment's weighted fault graph.
        mitigations: Candidates to evaluate (each applied in isolation).
        redundancy: Expected minimal-RG size for unexpected-RG counting.
        baseline_bdd: A compiled BDD of ``graph``, if the caller already
            has one.

    Returns:
        Outcomes sorted best-first (largest probability reduction).
    """
    if not mitigations:
        raise AnalysisError("no mitigations to evaluate")
    probs = graph.probabilities()
    if baseline_bdd is None:
        baseline_bdd = compile_graph(graph)
    before_probability = baseline_bdd.probability(probs)
    unexpected = unexpected_risk_groups(
        baseline_bdd.minimal_cut_sets(
            max_order=redundancy - 1, max_groups=DEFAULT_MAX_GROUPS
        ),
        expected_size=redundancy,
    )
    # A replica lifts the groups one short of ``redundancy`` out of the
    # unexpected ones; smaller groups stay unexpected with it.
    one_short = Counter(
        c for group in unexpected if len(group) == redundancy - 1 for c in group
    )
    outcomes = [
        MitigationOutcome(
            mitigation=mitigation,
            probability_before=before_probability,
            probability_after=baseline_bdd.probability(
                probs | {mitigation.component: mitigation.weight(graph)}
            ),
            unexpected_before=len(unexpected),
            unexpected_after=len(unexpected)
            - (
                one_short[mitigation.component]
                if isinstance(mitigation, Duplicate)
                else 0
            ),
        )
        for mitigation in mitigations
    ]
    outcomes.sort(key=lambda o: o.probability_after)
    return outcomes
