"""Fault-set level of detail (§4.1.1, Figure 4b).

A fault-set augments a component-set with a *failure probability* per
component: the failure of any component in a source's fault-set takes the
source down, and weights let the auditor rank risk groups by likelihood
rather than just by size.

Where the probabilities come from is deployment-specific (§5.1): device
failure statistics à la Gill et al. for network gear, CVSS-derived scores
for software.  :mod:`repro.failures` provides Gill-style device rates and
a uniform rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.componentset import ComponentSets
from repro.core.events import validate_probability
from repro.core.faultgraph import FaultGraph
from repro.errors import FaultGraphError

__all__ = ["FaultSets"]


@dataclass
class FaultSets:
    """Weighted component-sets: one probability per failure event.

    Attributes:
        sets: Mapping from data-source name to ``{component: probability}``.
        required: Live sources needed for the deployment to survive
            (default 1 = plain replication, matching the paper's top AND).
    """

    sets: dict[str, dict[str, float]] = field(default_factory=dict)
    required: int | None = None

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, Mapping[str, float]]
    ) -> "FaultSets":
        return cls(sets={s: dict(items) for s, items in mapping.items()})

    def __post_init__(self) -> None:
        for source, items in self.sets.items():
            if not items:
                raise FaultGraphError(f"fault-set {source!r} is empty")
            for comp, prob in items.items():
                items[comp] = validate_probability(
                    prob, what=f"probability of {comp!r} in {source!r}"
                )
        if self.required is not None and not 1 <= self.required <= len(
            self.sets
        ):
            raise FaultGraphError(
                f"required={self.required} outside 1..{len(self.sets)}"
            )

    @property
    def sources(self) -> list[str]:
        return list(self.sets)

    def probabilities(self) -> dict[str, float]:
        """Flat ``{component: probability}`` map across all sources.

        A component shared by several sources must carry the same weight
        everywhere — a mismatch means the inputs disagree about the real
        world, so we refuse to guess.
        """
        out: dict[str, float] = {}
        for source, items in self.sets.items():
            for comp, prob in items.items():
                if comp in out and out[comp] != prob:
                    raise FaultGraphError(
                        f"component {comp!r} has conflicting probabilities "
                        f"({out[comp]} vs {prob} in {source!r})"
                    )
                out[comp] = prob
        return out

    def component_sets(self) -> ComponentSets:
        """Discard the weights (downgrade to component-set level)."""
        return ComponentSets(
            sets={s: frozenset(items) for s, items in self.sets.items()},
            required=self.required,
        )

    def to_fault_graph(self, name: str = "") -> FaultGraph:
        """Build the weighted two-level AND-of-ORs graph (Figure 4b)."""
        probs = self.probabilities()
        graph = self.component_sets().to_fault_graph(name or "fault-sets")
        for comp, prob in probs.items():
            graph.set_probability(comp, prob)
        return graph
