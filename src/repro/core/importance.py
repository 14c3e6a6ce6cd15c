"""Component importance measures.

§4.1.3 ranks *risk groups*; operators also ask which single *component*
deserves hardening first.  Classic fault-tree analysis answers with:

* **Birnbaum importance** — ``I_B(c) = Pr(T | c failed) - Pr(T | c ok)``:
  how much the top-event probability moves with component c.  Computed
  exactly on the BDD (two conditioned traversals per component).
* **Fussell–Vesely importance** — ``I_FV(c) = Pr(some cut containing c
  fails) / Pr(T)``: the fraction of system risk flowing through c.
* **criticality importance** — Birnbaum scaled by ``p_c / Pr(T)``: the
  probability that c's failure is what actually broke the system.

These complement (and on singleton RGs coincide with) the paper's
relative-importance ranking, and slot into auditing reports as a
"harden these components first" list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.bdd import BDD, compile_graph
from repro.core.faultgraph import FaultGraph
from repro.core.probability import union_probability
from repro.errors import AnalysisError

__all__ = [
    "ComponentImportance",
    "birnbaum_importance",
    "fussell_vesely_importance",
    "component_importance_ranking",
]


@dataclass(frozen=True)
class ComponentImportance:
    """All importance measures for one component."""

    component: str
    probability: float
    birnbaum: float
    criticality: float
    fussell_vesely: float

    def describe(self) -> str:
        return (
            f"{self.component}: I_B={self.birnbaum:.4g} "
            f"I_crit={self.criticality:.4g} I_FV={self.fussell_vesely:.4g}"
        )


def _conditioned_probability(
    bdd: BDD, probabilities: Mapping[str, float], component: str, failed: bool
) -> float:
    """Pr(T) with one component pinned up or down."""
    pinned = dict(probabilities)
    pinned[component] = 1.0 if failed else 0.0
    return bdd.probability(pinned)


def _merged_probabilities(
    graph: FaultGraph, overrides: Optional[Mapping[str, float]]
) -> dict[str, float]:
    """Every basic event's weight: ``overrides`` first, the graph's own
    otherwise (a partial override leaves the other events as weighted)."""
    if not overrides:
        return graph.probabilities()
    return graph.map_probabilities(
        lambda e: overrides.get(e.name, e.probability)
    ).probabilities()


def birnbaum_importance(
    graph: FaultGraph,
    probabilities: Optional[Mapping[str, float]] = None,
    bdd: Optional[BDD] = None,
) -> dict[str, float]:
    """Exact Birnbaum importance of every basic event (via the BDD).

    ``probabilities`` are weight overrides (graph weights otherwise).
    """
    probs = _merged_probabilities(graph, probabilities)
    compiled = bdd if bdd is not None else compile_graph(graph)
    out = {}
    for component in graph.basic_events():
        up = _conditioned_probability(compiled, probs, component, True)
        down = _conditioned_probability(compiled, probs, component, False)
        out[component] = up - down
    return out


def fussell_vesely_importance(
    minimal_rgs: Sequence[frozenset[str]],
    probabilities: Mapping[str, float],
    top_probability: Optional[float] = None,
) -> dict[str, float]:
    """Fussell–Vesely importance from the minimal risk groups.

    ``I_FV(c)`` is the probability that at least one minimal RG
    *containing c* fails, relative to ``Pr(T)`` — the standard
    "fraction of risk through this component" measure.
    """
    if not minimal_rgs:
        raise AnalysisError("need at least one minimal risk group")
    if top_probability is None:
        top_probability = union_probability(list(minimal_rgs), probabilities)
    components = sorted({c for rg in minimal_rgs for c in rg})
    if top_probability <= 0.0:
        # No system risk means no risk flows through anything: the
        # measure is defined as 0 everywhere, not a division by zero.
        return {component: 0.0 for component in components}
    out = {}
    for component in components:
        containing = [rg for rg in minimal_rgs if component in rg]
        out[component] = (
            union_probability(containing, probabilities) / top_probability
        )
    return out


def component_importance_ranking(
    graph: FaultGraph,
    minimal_rgs: Optional[Sequence[frozenset[str]]] = None,
    probabilities: Optional[Mapping[str, float]] = None,
    bdd: Optional[BDD] = None,
) -> list[ComponentImportance]:
    """Full per-component importance table, Birnbaum-ranked.

    Args:
        graph: A weighted fault graph.
        minimal_rgs: Pre-computed minimal RGs (computed if omitted).
        probabilities: Weight overrides (graph weights otherwise).
        bdd: A pre-compiled BDD of ``graph`` (compiled if omitted), so
            callers that already hold the diagram skip a recompile.
    """
    from repro.core.minimal_rg import minimal_risk_groups  # avoid cycle

    probs = _merged_probabilities(graph, probabilities)
    groups = (
        list(minimal_rgs)
        if minimal_rgs is not None
        else minimal_risk_groups(graph)
    )
    if bdd is None:
        bdd = compile_graph(graph)
    top_probability = bdd.probability(probs)
    birnbaum = birnbaum_importance(graph, probs, bdd=bdd)
    fussell = fussell_vesely_importance(
        groups, probs, top_probability=top_probability
    )
    entries = []
    for component in graph.basic_events():
        i_b = birnbaum[component]
        # Pr(T) == 0 (every weight zero) still has a defined answer:
        # nothing can have broken the system, so criticality is 0.
        criticality = (
            i_b * probs[component] / top_probability
            if top_probability > 0.0
            else 0.0
        )
        entries.append(
            ComponentImportance(
                component=component,
                probability=probs[component],
                birnbaum=i_b,
                criticality=criticality,
                fussell_vesely=fussell.get(component, 0.0),
            )
        )
    entries.sort(key=lambda e: (-e.birnbaum, e.component))
    return entries
