"""Component importance measures.

§4.1.3 ranks *risk groups*; operators also ask which single *component*
deserves hardening first.  Classic fault-tree analysis answers with:

* **Birnbaum importance** — ``I_B(c) = Pr(T | c failed) - Pr(T | c ok)``:
  how much the top-event probability moves with component c.  Computed
  exactly on the BDD (two conditioned traversals per component).
* **criticality importance** — Birnbaum scaled by ``p_c / Pr(T)``: the
  probability that c's failure is what actually broke the system.

Fussell–Vesely importance is not offered.  It is not in the paper, its
cut-set form needs ``Pr(T)`` of one sub-family per component (slow and,
past the union's work budget, not exact), and its exact risk-reduction
form on the diagram, ``(Pr(T) - Pr(T | c ok)) / Pr(T)``, equals
``p_c · I_B(c) / Pr(T)``: the criticality column.

These complement (and on singleton RGs coincide with) the paper's
relative-importance ranking, and slot into auditing reports as a
"harden these components first" list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.bdd import BDD, compile_graph
from repro.core.faultgraph import FaultGraph

__all__ = [
    "ComponentImportance",
    "birnbaum_importance",
    "component_importance_ranking",
]


@dataclass(frozen=True)
class ComponentImportance:
    """All importance measures for one component."""

    component: str
    probability: float
    birnbaum: float
    criticality: float

    def describe(self) -> str:
        return (
            f"{self.component}: I_B={self.birnbaum:.4g} "
            f"I_crit={self.criticality:.4g}"
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


def component_importance_ranking(
    graph: FaultGraph,
    probabilities: Optional[Mapping[str, float]] = None,
    bdd: Optional[BDD] = None,
) -> list[ComponentImportance]:
    """Full per-component importance table, Birnbaum-ranked.

    Args:
        graph: A weighted fault graph.
        probabilities: Weight overrides (graph weights otherwise).
        bdd: A pre-compiled BDD of ``graph`` (compiled if omitted), so
            callers that already hold the diagram skip a recompile.
    """
    probs = _merged_probabilities(graph, probabilities)
    if bdd is None:
        bdd = compile_graph(graph)
    top_probability = bdd.probability(probs)
    birnbaum = birnbaum_importance(graph, probs, bdd=bdd)
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
            )
        )
    entries.sort(key=lambda e: (-e.birnbaum, e.component))
    return entries
