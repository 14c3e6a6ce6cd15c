"""The mitigated graphs a what-if stands for: the oracle it is checked against.

:func:`~repro.analysis.whatif.evaluate_mitigations` never builds these.
A mitigation changes one component's effective weight and nothing else
in the diagram, so it scores every candidate on the baseline diagram.
These builders make the graph each candidate means, so a test can
compile it, enumerate its minimal RGs and hold the two answers equal:

* :func:`harden_graph` — a copy with the component's probability lowered;
* :func:`duplicate_graph` — the component renamed ``c#primary``, a hot
  standby ``c#replica`` added beside it, and every former consumer of
  ``c`` now consuming ``c#pair``, the AND of the two.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro import FaultGraph, GateType
from repro.core.events import validate_probability
from repro.errors import AnalysisError, FaultGraphError


def harden_graph(
    graph: FaultGraph, component: str, probability: float
) -> FaultGraph:
    """A copy of ``graph`` in which ``component`` fails with ``probability``."""
    clone = graph.copy()
    clone.set_probability(component, validate_probability(probability))
    return clone


def relabel(graph: FaultGraph, mapping: Mapping[str, str]) -> FaultGraph:
    """A copy with event names rewritten through ``mapping``.

    Names missing from the mapping are kept.  Collisions raise.
    """

    def rename(n: str) -> str:
        return mapping.get(n, n)

    new_names = [rename(n) for n in graph.events()]
    if len(set(new_names)) != len(new_names):
        raise FaultGraphError("relabel mapping collapses distinct events")
    clone = FaultGraph(graph.name)
    for node in graph.topological_order():
        event = graph.event(node)
        if event.is_basic:
            clone.add_basic_event(
                rename(node),
                probability=event.probability,
                description=event.description,
                kind=event.kind,
            )
        else:
            clone.add_gate(
                rename(node),
                event.gate,
                [rename(c) for c in graph.children(node)],
                k=event.k,
                probability=event.probability,
                description=event.description,
                kind=event.kind,
            )
    if graph.has_top:
        clone.set_top(rename(graph.top))
    return clone


def duplicate_graph(
    graph: FaultGraph,
    component: str,
    replica_probability: Optional[float] = None,
) -> FaultGraph:
    """``graph`` with a hot standby of ``component``.

    The replica inherits the original's probability unless
    ``replica_probability`` is given.
    """
    original = graph.event(component)
    probability = (
        original.probability
        if replica_probability is None
        else validate_probability(replica_probability)
    )
    primary = f"{component}#primary"
    replica = f"{component}#replica"
    pair = f"{component}#pair"
    taken = [n for n in (primary, replica, pair) if n in graph]
    if taken:
        raise AnalysisError(
            f"cannot duplicate {component!r}: the graph already "
            f"contains {', '.join(repr(n) for n in taken)} (duplicate "
            f"the surviving basic component instead)"
        )
    renamed = relabel(graph, {component: primary})
    clone = FaultGraph(renamed.name)
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
                    description=f"hot standby of {component}",
                    kind=original.kind,
                )
                clone.add_gate(
                    pair,
                    GateType.AND,
                    [primary, replica],
                    kind=original.kind,
                    description=f"{component} and its standby both fail",
                )
            continue
        clone.add_gate(
            node,
            event.gate,
            [pair if c == primary else c for c in renamed.children(node)],
            k=event.k,
            description=event.description,
            kind=event.kind,
        )
    clone.set_top(pair if renamed.top == primary else renamed.top)
    clone.validate()
    return clone
