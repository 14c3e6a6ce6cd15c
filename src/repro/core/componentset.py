"""Component-set level of detail (§4.1.1, Figure 4a).

At the most basic level, each data source is summarised by the flat *set of
components* it depends on.  Independence reasoning then focuses purely on
shared components: a component appearing in several sets is a potential
source of correlated failure.

Component-sets are what the private auditing protocol (PIA, §4.2) operates
on, and the "AND-of-ORs" two-level fault graph they induce is what the
structural protocol (SIA) uses when no richer information is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.events import GateType
from repro.core.faultgraph import FaultGraph
from repro.errors import FaultGraphError

__all__ = ["ComponentSets", "component_sets_from_graph"]

TOP_EVENT = "deployment-failure"


@dataclass
class ComponentSets:
    """Named component-sets for the data sources of one deployment.

    Attributes:
        sets: Mapping from data-source name (e.g. ``"E1"``) to the set of
            component identifiers it depends on.
        required: How many data sources must stay alive for the deployment
            to survive (n in an n-of-m deployment).  Defaults to 1, i.e.
            plain replication (Figure 4a's top-level AND gate): the
            deployment only fails if every source fails.
    """

    sets: dict[str, frozenset[str]] = field(default_factory=dict)
    required: int | None = None

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, Iterable[str]]
    ) -> "ComponentSets":
        return cls(
            sets={name: frozenset(items) for name, items in mapping.items()}
        )

    def __post_init__(self) -> None:
        self.sets = {k: frozenset(v) for k, v in self.sets.items()}
        for name, items in self.sets.items():
            if not items:
                raise FaultGraphError(f"component-set {name!r} is empty")
        if self.required is not None and not 1 <= self.required <= len(
            self.sets
        ):
            raise FaultGraphError(
                f"required={self.required} outside 1..{len(self.sets)}"
            )

    @property
    def sources(self) -> list[str]:
        return list(self.sets)

    def components(self) -> frozenset[str]:
        """Union of all components across sources."""
        out: set[str] = set()
        for items in self.sets.values():
            out.update(items)
        return frozenset(out)

    def to_fault_graph(self, name: str = "") -> FaultGraph:
        """Build the two-level "AND-of-ORs" dependency graph (Figure 4a).

        The top event is an AND (or k-of-n for partial redundancy) across
        data sources; each data source fails if any of its components fails
        (an OR gate).  Shared components become shared leaf nodes.
        """
        if len(self.sets) < 1:
            raise FaultGraphError("need at least one data source")
        graph = FaultGraph(name or "component-sets")
        for items in self.sets.values():
            for comp in sorted(items):
                graph.add_basic_event(comp, exist_ok=True)
        source_events = []
        for source, items in self.sets.items():
            source_events.append(
                graph.add_gate(source, GateType.OR, sorted(items))
            )
        if len(source_events) == 1:
            # Degenerate single-source deployment: its failure IS the top.
            graph.set_top(source_events[0])
            return graph
        required = 1 if self.required is None else self.required
        graph.add_redundancy_gate(
            TOP_EVENT, source_events, required=required, top=True
        )
        return graph


def component_sets_from_graph(graph: FaultGraph) -> ComponentSets:
    """Downgrade a fault graph to the component-set level of detail.

    Each child of the top event is treated as one data source; its
    component-set is the set of basic events in its subgraph.  Weights and
    internal structure are discarded — this implements the "downgrade"
    operation described at the end of §4.1.1.
    """
    top = graph.top
    sources = graph.children(top)
    if not sources:
        raise FaultGraphError("top event has no children to downgrade")
    sets = {}
    for source in sources:
        sets[source] = frozenset(graph.basic_events_under(source))
    required = None
    event = graph.event(top)
    if event.gate is GateType.K_OF_N:
        # k failures kill the deployment  =>  it required m - k + 1 sources.
        required = len(sources) - graph.threshold(top) + 1
    elif event.gate is GateType.OR:
        required = len(sources)
    return ComponentSets(sets=sets, required=required)
