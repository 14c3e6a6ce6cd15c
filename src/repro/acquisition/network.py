"""Network dependency acquisition — the NSDMiner substitute (§3).

NSDMiner discovers network service dependencies by watching traffic
flows.  Our substitute produces the same ``<src, dst, route>`` records
from a simulated substrate, in two modes:

* **Topology mode** — enumerate the ECMP routes a routing policy would
  install (complete knowledge, what a fully-converged NSDMiner run or an
  SDN controller dump would yield).
* **Traffic mode** — simulate flows that each pick one ECMP route at
  random and record only *observed* routes.  With few flows some
  redundant paths stay undiscovered, reproducing the "identify about 90%
  of relevant dependencies" behaviour the paper reports for bounded
  auditing effort.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.acquisition.base import DependencyAcquisitionModule
from repro.depdb.records import NetworkDependency
from repro.errors import AcquisitionError
from repro.topology.graph import INTERNET, Topology
from repro.topology.routing import _router, shortest_routes

__all__ = ["NetworkDependencyCollector", "TrafficSampledCollector"]


class NetworkDependencyCollector(DependencyAcquisitionModule):
    """Route-table based collector (complete route knowledge).

    Args:
        topology: The substrate to walk.
        servers: Which servers to collect for (default: all servers).
        dst: Destination of interest (default: the Internet).
        static_routes: Optional explicit routing policy mapping
            ``server -> [route, ...]`` (each route a tuple of intermediate
            devices).  When given, it *overrides* shortest-path
            enumeration — this is how a static routing configuration such
            as the §6.2.1 data center is expressed.
        max_routes: Optional ECMP fan-out cap for shortest-path mode.
    """

    kind = "network"

    def __init__(
        self,
        topology: Topology,
        servers: Optional[Sequence[str]] = None,
        dst: str = INTERNET,
        static_routes: Optional[Mapping[str, Sequence[tuple[str, ...]]]] = None,
        max_routes: Optional[int] = None,
    ) -> None:
        self.topology = topology
        self.servers = (
            list(servers)
            if servers is not None
            else [d.name for d in topology.servers()]
        )
        if not self.servers:
            raise AcquisitionError("no servers to collect network data for")
        self.dst = dst
        self.static_routes = (
            None
            if static_routes is None
            else {s: [tuple(r) for r in routes] for s, routes in static_routes.items()}
        )
        self.max_routes = max_routes

    def routes_for(self, server: str) -> list[tuple[str, ...]]:
        if self.static_routes is not None:
            try:
                return list(self.static_routes[server])
            except KeyError:
                raise AcquisitionError(
                    f"no static route configured for {server!r}"
                ) from None
        return shortest_routes(
            self.topology, server, self.dst, max_routes=self.max_routes
        )

    def stream(self) -> Iterator[NetworkDependency]:
        routes_for = (
            self.routes_for
            if self.static_routes is not None
            else _router(self.topology, self.dst, self.max_routes)
        )
        for server in self.servers:
            for route in routes_for(server):
                yield NetworkDependency(src=server, dst=self.dst, route=route)


class TrafficSampledCollector(NetworkDependencyCollector):
    """Flow-sampling collector (NSDMiner's partial-observation regime).

    Each simulated flow from a server picks one of its ECMP routes
    uniformly at random; only routes observed by at least one flow are
    reported.  ``flows_per_server`` therefore controls discovery
    completeness: the chance of missing one of r routes after f flows is
    ``r * ((r-1)/r)^f``.
    """

    kind = "network"

    def __init__(
        self,
        topology: Topology,
        flows_per_server: int = 16,
        seed: Optional[int] = 0,
        **kwargs,
    ) -> None:
        super().__init__(topology, **kwargs)
        if flows_per_server < 1:
            raise AcquisitionError(
                f"flows_per_server must be >= 1, got {flows_per_server}"
            )
        self.flows_per_server = flows_per_server
        # Every stream draws from a fresh generator over this entropy, so
        # each collect() observes the same routes.
        self._entropy = np.random.SeedSequence(seed).entropy

    def _sampled_routes(self, server: str) -> list[tuple[str, ...]]:
        routes = self.routes_for(server)
        if not routes:
            raise AcquisitionError(
                f"no route to sample flows over for {server!r}"
            )
        return routes

    def stream(self) -> Iterator[NetworkDependency]:
        rng = np.random.default_rng(np.random.SeedSequence(self._entropy))
        for server in self.servers:
            routes = self._sampled_routes(server)
            picks = rng.integers(0, len(routes), size=self.flows_per_server)
            for index in sorted(set(picks.tolist())):
                yield NetworkDependency(
                    src=server, dst=self.dst, route=routes[index]
                )

    def discovery_ratio(self) -> float:
        """Fraction of all routes a :meth:`collect` call would observe
        in expectation (diagnostic for experiment write-ups)."""
        total = 0
        expected = 0.0
        for server in self.servers:
            r = len(self._sampled_routes(server))
            total += r
            expected += r * (1.0 - ((r - 1) / r) ** self.flows_per_server)
        return expected / total if total else 1.0
