"""Route enumeration over topologies.

Dependency acquisition (the NSDMiner substitute) needs, for each server,
the set of redundant routes to its destinations.  Real deployments learn
these from traffic; we enumerate them from the topology:

* :func:`shortest_routes` — all equal-cost shortest paths (ECMP), the
  right model for fat trees and the lab cloud;
* :func:`fat_tree_routes` — closed-form enumeration for fat trees, which
  avoids any graph search on 30k-device graphs.

Routes are returned as tuples of *intermediate* device names (endpoints
excluded), matching the Table-1 ``route="x,y,z"`` convention.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.errors import RoutingError
from repro.topology.fattree import FatTreeConfig
from repro.topology.graph import INTERNET, Topology

__all__ = ["shortest_routes", "fat_tree_routes", "route_devices"]


def shortest_routes(
    topology: Topology,
    src: str,
    dst: str = INTERNET,
    max_routes: Optional[int] = None,
) -> list[tuple[str, ...]]:
    """All equal-cost shortest routes between two devices.

    One breadth-first search gives every device's hop count to ``dst``;
    a depth-first walk from ``src`` then steps only to neighbours one hop
    closer, in name order, so routes come out already sorted.

    Args:
        max_routes: Optional cap: the lexicographically first
            ``max_routes`` routes (ECMP implementations bound their
            fan-out the same way).

    Returns:
        Routes as tuples of intermediate device names, sorted.

    Raises:
        RoutingError: If either device is unknown or no path exists.
    """
    return _router(topology, dst, max_routes)(src)


def _router(
    topology: Topology, dst: str, max_routes: Optional[int]
) -> Callable[[str], list[tuple[str, ...]]]:
    """:func:`shortest_routes` to ``dst`` as a function of ``src``, for
    many sources: the search from ``dst`` runs once, on the first call,
    and each device's next hops are sorted once."""
    hops: dict[str, int] = {}
    steps: dict[str, list[str]] = {}

    def closer(node: str) -> Iterator[str]:
        step = steps.get(node)
        if step is None:
            depth = hops[node] - 1
            steps[node] = step = sorted(
                n for n in topology.neighbors(node) if hops.get(n) == depth
            )
        return iter(step)

    def routes(src: str) -> list[tuple[str, ...]]:
        for end in (src, dst):
            if end not in topology:
                raise RoutingError(f"unknown device {end!r}")
        if not hops:
            hops.update(topology.hops_from(dst))
        if src not in hops:
            raise RoutingError(f"no route from {src!r} to {dst!r}")
        if src == dst:
            return [()]
        found: list[tuple[str, ...]] = []
        path = [src]
        stack = [closer(src)]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                path.pop()
            elif node == dst:
                found.append(tuple(path[1:]))
                if max_routes is not None and len(found) >= max_routes:
                    break
            else:
                path.append(node)
                stack.append(closer(node))
        return found

    return routes


def fat_tree_routes(
    config: FatTreeConfig,
    server: str,
    dst: str = INTERNET,
    max_routes: Optional[int] = None,
) -> list[tuple[str, ...]]:
    """Closed-form ECMP routes for fat-tree servers.

    For ``srv-p{p}-t{t}-{s}`` to the Internet the routes are
    ``(tor, agg_a, core-a-j)`` for every aggregation switch ``a`` in the
    pod and every core ``j`` in group ``a`` — ``(k/2)^2`` routes total.
    Cross-server routes traverse ``(tor, agg, core, agg', tor')``.
    """
    half = config.ports // 2
    pod, tor_idx = _parse_server(server)
    tor = f"pod{pod}-tor{tor_idx}"
    routes: list[tuple[str, ...]] = []
    if dst == INTERNET:
        for a in range(half):
            agg = f"pod{pod}-agg{a}"
            for j in range(half):
                routes.append((tor, agg, f"core-{a}-{j}"))
                if max_routes is not None and len(routes) >= max_routes:
                    return sorted(routes)
        return sorted(routes)
    dpod, dtor_idx = _parse_server(dst)
    dtor = f"pod{dpod}-tor{dtor_idx}"
    if dpod == pod:
        if dtor_idx == tor_idx:
            return [(tor,)]
        for a in range(half):
            routes.append((tor, f"pod{pod}-agg{a}", dtor))
            if max_routes is not None and len(routes) >= max_routes:
                return sorted(routes)
        return sorted(routes)
    for a in range(half):
        for j in range(half):
            routes.append(
                (
                    tor,
                    f"pod{pod}-agg{a}",
                    f"core-{a}-{j}",
                    f"pod{dpod}-agg{a}",
                    dtor,
                )
            )
            if max_routes is not None and len(routes) >= max_routes:
                return sorted(routes)
    return sorted(routes)


def _parse_server(name: str) -> tuple[int, int]:
    """Extract (pod, tor) indices from a fat-tree server/ToR name."""
    try:
        if name.startswith("srv-p"):
            body = name[len("srv-p"):]
            pod_s, tor_s, _ = body.split("-")
            return int(pod_s), int(tor_s[1:])
        if name.startswith("pod") and "-tor" in name:
            pod_s, tor_s = name.split("-tor")
            return int(pod_s[3:]), int(tor_s)
    except (ValueError, IndexError):
        pass
    raise RoutingError(f"not a fat-tree server or ToR name: {name!r}")


def route_devices(
    topology: Topology, routes: list[tuple[str, ...]]
) -> frozenset[str]:
    """Union of devices used by a route collection (with validation)."""
    devices: set[str] = set()
    for route in routes:
        for hop in route:
            topology.device(hop)
            devices.add(hop)
    return frozenset(devices)
