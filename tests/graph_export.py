"""NetworkX views of the package's graphs, for tests only.

``src/`` never imports NetworkX.  The tests use it as an oracle (route
enumeration against ``all_shortest_paths``) and to check the graph
models from outside, so the exporters live here and read only public
API: a :class:`~repro.topology.Topology` through ``devices``,
``neighbors`` and ``link_count``, a :class:`~repro.core.FaultGraph`
through ``events``, ``event`` and ``children``.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.core import FaultGraph
from repro.topology import Topology


@dataclass(frozen=True)
class Link:
    """An undirected physical link; ``index`` disambiguates parallels."""

    a: str
    b: str
    index: int = 0

    @property
    def name(self) -> str:
        lo, hi = sorted((self.a, self.b))
        return f"link:{lo}~{hi}#{self.index}"


def links_between(topology: Topology, a: str, b: str) -> list[Link]:
    """The parallel links joining ``a`` and ``b``, oriented as asked:
    index ``i`` of a pair is its ``i``-th link (none for an unknown
    device)."""
    if a not in topology or b not in topology:
        return []
    return [Link(a, b, index=i) for i in range(topology.link_count(a, b))]


def topology_to_networkx(topology: Topology, multigraph: bool = False) -> nx.Graph:
    """Devices and links as a NetworkX graph; parallel links collapse
    unless ``multigraph`` is requested."""
    graph: nx.Graph = nx.MultiGraph() if multigraph else nx.Graph()
    graph.name = topology.name
    for device in topology.devices():
        graph.add_node(device.name, type=device.type.value)
    for device in topology.devices():
        a = device.name
        for b in topology.neighbors(a):
            if not multigraph:
                graph.add_edge(a, b)
            elif not graph.has_edge(a, b):
                for index in range(topology.link_count(a, b)):
                    graph.add_edge(a, b, key=index)
    return graph


def fault_graph_to_networkx(graph: FaultGraph) -> nx.DiGraph:
    """A fault graph as a NetworkX DiGraph (edges parent -> child)."""
    out = nx.DiGraph(name=graph.name)
    for node in graph.events():
        event = graph.event(node)
        out.add_node(
            node,
            gate=event.gate.value if event.gate else None,
            k=event.k,
            probability=event.probability,
            kind=event.kind,
        )
    for node in graph.events():
        for child in graph.children(node):
            out.add_edge(node, child)
    return out
