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
* :func:`evaluate_mitigations` — re-analyse the graph under each
  mitigation and rank them by top-event probability reduction.

Everything operates on copies; the input graph is never mutated.

Mitigations are evaluated independently, so an
:class:`~repro.engine.AuditEngine` turns a what-if sweep into a parallel
map: pass ``engine=`` to fan candidates out across its workers and to
reuse cached compilations of the (unchanged) baseline graph between
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from repro.core.bdd import BDD, compile_graph
from repro.core.events import GateType, validate_probability
from repro.core.faultgraph import FaultGraph
from repro.core.minimal_rg import DEFAULT_MAX_GROUPS, unexpected_risk_groups
from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.facade import AuditEngine

__all__ = ["Harden", "Duplicate", "MitigationOutcome", "evaluate_mitigations"]


@dataclass(frozen=True)
class Harden:
    """Reduce a component's failure probability to ``probability``."""

    component: str
    probability: float

    def describe(self) -> str:
        return f"harden {self.component} (p -> {self.probability:g})"

    def apply(self, graph: FaultGraph) -> FaultGraph:
        if self.component not in graph:
            raise AnalysisError(f"unknown component {self.component!r}")
        if not graph.is_basic(self.component):
            raise AnalysisError(
                f"{self.component!r} is a gate; harden basic components"
            )
        current = graph.probability_of(self.component)
        new = validate_probability(self.probability)
        if current is not None and new > current:
            raise AnalysisError(
                f"hardening {self.component!r} must not raise its "
                f"probability ({current} -> {new})"
            )
        clone = graph.copy()
        clone.set_probability(self.component, new)
        return clone


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

    def apply(self, graph: FaultGraph) -> FaultGraph:
        if self.component not in graph:
            raise AnalysisError(f"unknown component {self.component!r}")
        if not graph.is_basic(self.component):
            raise AnalysisError(
                f"{self.component!r} is a gate; duplicate basic components"
            )
        original = graph.event(self.component)
        probability = (
            original.probability
            if self.replica_probability is None
            else validate_probability(self.replica_probability)
        )
        # Rebuild the graph: the renamed primary and a fresh replica feed
        # an AND gate, and every former consumer of the component now
        # consumes the pair instead.
        primary = f"{self.component}#primary"
        replica = f"{self.component}#replica"
        pair = f"{self.component}#pair"
        taken = [n for n in (primary, replica, pair) if n in graph]
        if taken:
            raise AnalysisError(
                f"cannot duplicate {self.component!r}: the graph already "
                f"contains {', '.join(repr(n) for n in taken)} (duplicate "
                f"the surviving basic component instead)"
            )
        renamed = graph.relabel({self.component: primary})
        clone = FaultGraph(renamed.name)
        pair_added = False
        for node in renamed.topological_order():
            event = renamed.event(node)
            if event.is_basic:
                clone.add_basic_event(
                    node,
                    probability=event.probability,
                    description=event.description,
                    kind=event.kind,
                )
                if node == primary:
                    clone.add_basic_event(
                        replica,
                        probability=probability,
                        description=f"hot standby of {self.component}",
                        kind=original.kind,
                    )
                    clone.add_gate(
                        pair,
                        GateType.AND,
                        [primary, replica],
                        kind=original.kind,
                        description=(
                            f"{self.component} and its standby both fail"
                        ),
                    )
                    pair_added = True
                continue
            clone.add_gate(
                node,
                event.gate,
                [pair if c == primary else c for c in renamed.children(node)],
                k=event.k,
                description=event.description,
                kind=event.kind,
            )
        assert pair_added
        clone.set_top(pair if renamed.top == primary else renamed.top)
        clone.validate()
        return clone


Mitigation = Union[Harden, Duplicate]


@dataclass
class MitigationOutcome:
    """Effect of one mitigation on the deployment."""

    mitigation: Mitigation
    probability_before: float
    probability_after: float
    unexpected_before: int
    unexpected_after: int
    metadata: dict = field(default_factory=dict)

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


def _unexpected_count(bdd: BDD, redundancy: int) -> int:
    """Unexpected-RG count read off a diagram the caller already holds
    (the probability query compiled it), under the shared family valve."""
    groups = bdd.minimal_cut_sets(max_groups=DEFAULT_MAX_GROUPS)
    return len(unexpected_risk_groups(groups, expected_size=redundancy))


def _evaluate_one_mitigation(
    weighted: FaultGraph,
    mitigation: Mitigation,
    redundancy: int,
) -> tuple[float, int]:
    """Apply one mitigation and measure Pr(top) + unexpected-RG count.

    Module-level so an engine can ship it to worker processes.
    """
    mitigated = mitigation.apply(weighted)
    bdd = compile_graph(mitigated)
    return (
        bdd.probability(mitigated.probabilities()),
        _unexpected_count(bdd, redundancy),
    )


def evaluate_mitigations(
    graph: FaultGraph,
    mitigations: Sequence[Mitigation],
    probabilities: Optional[Mapping[str, float]] = None,
    redundancy: int = 2,
    engine: Optional["AuditEngine"] = None,
    baseline_bdd: Optional[BDD] = None,
) -> list[MitigationOutcome]:
    """Rank candidate mitigations by top-event probability reduction.

    Args:
        graph: The deployment's weighted fault graph.
        mitigations: Candidates to evaluate (each applied in isolation).
        probabilities: Weight overrides (graph weights otherwise).
        redundancy: Expected minimal-RG size for unexpected-RG counting.
        engine: Optional :class:`~repro.engine.AuditEngine`; candidates
            are evaluated across its worker processes and the baseline
            graph's BDD comes from its cache.  Results are identical with
            or without an engine, for any worker count.
        baseline_bdd: A compiled BDD of the unmitigated weighted graph,
            if the caller already has one (it must be structurally
            identical to ``graph`` under the given weights).

    Returns:
        Outcomes sorted best-first (largest probability reduction).
    """
    if not mitigations:
        raise AnalysisError("no mitigations to evaluate")
    overrides = probabilities or {}
    weighted = graph.map_probabilities(
        lambda e: overrides.get(e.name, e.probability)
    )
    if baseline_bdd is None:
        baseline_bdd = (
            engine.compile_bdd(weighted)
            if engine is not None
            else compile_graph(weighted)
        )
    before_probability = baseline_bdd.probability(weighted.probabilities())
    before_unexpected = _unexpected_count(baseline_bdd, redundancy)
    jobs = [(weighted, m, redundancy) for m in mitigations]
    if engine is not None:
        measurements = engine.map_jobs(_evaluate_one_mitigation, jobs)
    else:
        measurements = [_evaluate_one_mitigation(*job) for job in jobs]
    outcomes = [
        MitigationOutcome(
            mitigation=mitigation,
            probability_before=before_probability,
            probability_after=after_probability,
            unexpected_before=before_unexpected,
            unexpected_after=after_unexpected,
        )
        for mitigation, (after_probability, after_unexpected) in zip(
            mitigations, measurements
        )
    ]
    outcomes.sort(key=lambda o: o.probability_after)
    return outcomes
