"""Dependency-graph construction from DepDB records (§4.1.1, Steps 1–6).

Given an auditing client's specification (which servers, which software),
the auditing agent builds the deployment's fault graph top-down:

1. the top event is the failure of the whole redundancy deployment;
2. each server's failure event feeds the top through a redundancy
   (AND / k-of-n) gate;
3. each server fails if its network, hardware or software fails (OR), or —
   by default — if the host itself dies (a per-server basic event, which
   is what lets audits surface RGs like ``{VM7, VM8}`` from §6.2.2);
4. hardware components hang off an OR gate;
5. redundant network paths are ANDed, devices within a path ORed;
6. software programs hang off an OR gate, each program ORing its packages.

Node names are prefixed by category (``device:``, ``hw:``, ``pkg:``,
``host:``, ...) so that identical identifiers acquired from different
servers become *shared* leaf nodes — which is precisely how hidden common
dependencies enter the graph.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.core.events import GateType
from repro.core.faultgraph import FaultGraph
from repro.depdb.database import DepDB
from repro.errors import SpecificationError

__all__ = ["build_dependency_graph", "Weigher", "node_identifier"]

#: Callback assigning a failure probability to a leaf: receives the leaf's
#: category ("host", "device", "hw", "pkg") and bare identifier; returns a
#: probability or None to leave the event unweighted.
Weigher = Callable[[str, str], Optional[float]]

def node_identifier(name: str) -> str:
    """Bare identifier of a builder-generated node name."""
    _, _, ident = name.partition(":")
    return ident or name


def build_dependency_graph(
    depdb: DepDB,
    servers: Sequence[str],
    deployment: str = "R",
    required: int = 1,
    programs: Optional[Union[Iterable[str], Mapping[str, Iterable[str]]]] = None,
    destinations: Optional[Iterable[str]] = None,
    include_host_events: bool = True,
    weigher: Optional[Weigher] = None,
) -> FaultGraph:
    """Build the fault graph of one redundancy deployment.

    Args:
        depdb: Dependency database previously filled by acquisition modules.
        servers: The redundant servers of the deployment (Step 2).
        deployment: Name for the top event (``deployment:<name>``).
        required: How many servers must stay alive (n in n-of-m, default 1
            = plain replication, the paper's top-level AND).
        programs: Software components of interest — either one list applied
            to every server or a per-server mapping (§3: "our current
            prototype requires the auditing client to list software
            components of interest").  ``None`` audits everything found.
        destinations: Restrict network auditing to routes towards these
            destinations (default: all destinations in the DepDB).
        include_host_events: Add a ``host:<server>`` basic event per server
            modelling the machine itself dying.
        weigher: Optional probability assignment for leaf events.

    Returns:
        A validated :class:`FaultGraph` whose top is the deployment failure.
    """
    servers = list(servers)
    if not servers:
        raise SpecificationError("a deployment needs at least one server")
    if len(set(servers)) != len(servers):
        raise SpecificationError(f"duplicate servers in deployment: {servers}")
    if not 1 <= required <= len(servers):
        raise SpecificationError(
            f"required={required} is outside 1..{len(servers)}"
        )
    wanted_destinations = None if destinations is None else set(destinations)

    graph = FaultGraph(f"deployment:{deployment}")
    server_gates = []
    for server in servers:
        server_gates.append(
            _build_server(
                graph,
                depdb,
                server,
                _programs_for(programs, server),
                wanted_destinations,
                include_host_events,
                weigher,
            )
        )
    if len(server_gates) == 1:
        graph.set_top(server_gates[0])
    else:
        graph.add_redundancy_gate(
            f"deployment:{deployment}",
            server_gates,
            required=required,
            top=True,
            description=f"{required}-of-{len(servers)} redundancy fails",
        )
    graph.validate()
    return graph


def _programs_for(
    programs: Optional[Union[Iterable[str], Mapping[str, Iterable[str]]]],
    server: str,
) -> Optional[list[str]]:
    if programs is None:
        return None
    if isinstance(programs, Mapping):
        selected = programs.get(server)
        return None if selected is None else list(selected)
    return list(programs)


def _weight(
    weigher: Optional[Weigher], kind: str, identifier: str
) -> Optional[float]:
    return None if weigher is None else weigher(kind, identifier)


def _add_leaf(
    graph: FaultGraph,
    name: str,
    kind: str,
    weigher: Optional[Weigher],
    description: str = "",
) -> str:
    if name in graph:
        return name
    return graph.add_basic_event(
        name,
        probability=_weight(weigher, kind, node_identifier(name)),
        description=description,
        kind=kind,
    )


def _build_server(
    graph: FaultGraph,
    depdb: DepDB,
    server: str,
    programs: Optional[list[str]],
    destinations: Optional[set[str]],
    include_host_events: bool,
    weigher: Optional[Weigher],
) -> str:
    """Steps 3–6 for one server; returns the server failure event name."""
    children: list[str] = []

    if include_host_events:
        children.append(
            _add_leaf(
                graph,
                f"host:{server}",
                "host",
                weigher,
                description=f"server {server} itself fails",
            )
        )

    network_gate = _build_network(graph, depdb, server, destinations, weigher)
    if network_gate is not None:
        children.append(network_gate)

    hardware_gate = _build_hardware(graph, depdb, server, weigher)
    if hardware_gate is not None:
        children.append(hardware_gate)

    software_gate = _build_software(graph, depdb, server, programs, weigher)
    if software_gate is not None:
        children.append(software_gate)

    if not children:
        raise SpecificationError(
            f"server {server!r} has no dependency records and host events "
            f"are disabled; nothing to audit"
        )
    return graph.add_gate(
        f"server:{server}",
        GateType.OR,
        children,
        kind="server",
        description=f"failure of server {server}",
    )


def _build_network(
    graph: FaultGraph,
    depdb: DepDB,
    server: str,
    destinations: Optional[set[str]],
    weigher: Optional[Weigher],
) -> Optional[str]:
    """Step 5: AND redundant paths per destination, OR across destinations."""
    targets = [
        dst
        for dst in depdb.network_destinations(server)
        if destinations is None or dst in destinations
    ]
    destination_gates = []
    for dst in targets:
        paths = depdb.network_paths(server, dst)
        path_gates = []
        for i, record in enumerate(paths):
            devices = [
                _add_leaf(graph, f"device:{dev}", "device", weigher)
                for dev in record.route
            ]
            path_gates.append(
                graph.add_gate(
                    f"path:{server}->{dst}#{i}",
                    GateType.OR,
                    devices,
                    kind="path",
                    description=f"route {'>'.join(record.route)} breaks",
                )
            )
        if len(path_gates) == 1:
            destination_gates.append(path_gates[0])
        else:
            destination_gates.append(
                graph.add_gate(
                    f"net:{server}->{dst}",
                    GateType.AND,
                    path_gates,
                    kind="net",
                    description=f"all routes {server}->{dst} break",
                )
            )
    if not destination_gates:
        return None
    return graph.add_gate(
        f"net:{server}",
        GateType.OR,
        destination_gates,
        kind="net",
        description=f"server {server} loses connectivity",
    )


def _build_hardware(
    graph: FaultGraph,
    depdb: DepDB,
    server: str,
    weigher: Optional[Weigher],
) -> Optional[str]:
    """Step 4: OR over the server's physical components."""
    records = depdb.hardware_of(server)
    if not records:
        return None
    leaves = []
    for record in records:
        leaves.append(
            _add_leaf(
                graph,
                f"hw:{record.dep}",
                "hw",
                weigher,
                description=f"{record.type} {record.dep} fails",
            )
        )
    # A server listing the same component model twice contributes one leaf.
    unique = list(dict.fromkeys(leaves))
    return graph.add_gate(
        f"hardware:{server}",
        GateType.OR,
        unique,
        kind="hardware",
        description=f"hardware of {server} fails",
    )


def _build_software(
    graph: FaultGraph,
    depdb: DepDB,
    server: str,
    programs: Optional[list[str]],
    weigher: Optional[Weigher],
) -> Optional[str]:
    """Step 6: OR over programs, each ORing its packages."""
    records = depdb.software_on(server, programs)
    if programs is not None:
        found = {r.pgm for r in records}
        missing = [p for p in programs if p not in found]
        if missing:
            raise SpecificationError(
                f"no software records for {missing} on server {server!r}"
            )
    if not records:
        return None
    # A program may appear in several records; union its package lists.
    packages_by_program: dict[str, list[str]] = {}
    for record in records:
        bucket = packages_by_program.setdefault(record.pgm, [])
        for pkg in record.dep:
            if pkg not in bucket:
                bucket.append(pkg)
    program_gates = []
    for pgm, packages in packages_by_program.items():
        children = [
            _add_leaf(graph, f"pkg:{p}", "pkg", weigher) for p in packages
        ]
        program_gates.append(
            graph.add_gate(
                f"sw:{pgm}",
                GateType.OR,
                children,
                kind="sw",
                description=f"program {pgm} fails",
            )
        )
    return graph.add_gate(
        f"software:{server}",
        GateType.OR,
        program_gates,
        kind="software",
        description=f"software stack of {server} fails",
    )
