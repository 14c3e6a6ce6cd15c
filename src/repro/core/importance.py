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
from typing import Optional

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


def birnbaum_importance(
    graph: FaultGraph, bdd: Optional[BDD] = None
) -> dict[str, float]:
    """Exact Birnbaum importance of every basic event (via the BDD)."""
    probs = graph.probabilities()
    compiled = bdd if bdd is not None else compile_graph(graph)
    return {
        component: compiled.probability(probs | {component: 1.0})
        - compiled.probability(probs | {component: 0.0})
        for component in graph.basic_events()
    }


def component_importance_ranking(
    graph: FaultGraph, bdd: Optional[BDD] = None
) -> list[ComponentImportance]:
    """Full per-component importance table, Birnbaum-ranked.

    Args:
        graph: A weighted fault graph.
        bdd: A pre-compiled BDD of ``graph`` (compiled if omitted), so
            callers that already hold the diagram skip a recompile.
    """
    probs = graph.probabilities()
    if bdd is None:
        bdd = compile_graph(graph)
    top_probability = bdd.probability(probs)
    birnbaum = birnbaum_importance(graph, bdd=bdd)
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
