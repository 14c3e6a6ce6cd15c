"""Physical topology model: devices and links.

Topologies are the substrate the network dependency-acquisition module
walks (our NSDMiner substitute).  A :class:`Topology` is an undirected
multigraph of named :class:`Device` objects; parallel links are supported
because redundant cabling matters for failure analysis.  It stores only
how many links join each pair of devices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import TopologyError

__all__ = ["DeviceType", "Device", "Topology", "INTERNET"]

#: Conventional name of the virtual node representing the outside world.
INTERNET = "Internet"


class DeviceType(enum.Enum):
    """Role of a device within a data-center topology."""

    SERVER = "server"
    TOR = "tor"                  # top-of-rack / edge switch
    AGGREGATION = "aggregation"
    CORE = "core"
    SWITCH = "switch"            # generic L2 switch
    ROUTER = "router"
    EXTERNAL = "external"        # e.g. the Internet


@dataclass(frozen=True)
class Device:
    """A network element or host."""

    name: str
    type: DeviceType
    rack: Optional[int] = None
    pod: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("device name must be non-empty")


class Topology:
    """Undirected multigraph of devices.

    Links are kept as adjacency counts, ``neighbour -> parallel links``
    per device, the only form routing reads.

    >>> topo = Topology("demo")
    >>> _ = topo.add_device("s1", DeviceType.SERVER)
    >>> _ = topo.add_device("tor1", DeviceType.TOR)
    >>> topo.add_link("s1", "tor1")
    >>> topo.neighbors("s1")
    ['tor1']
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._devices: dict[str, Device] = {}
        self._adjacency: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_device(
        self,
        name: str,
        type: DeviceType,
        rack: Optional[int] = None,
        pod: Optional[int] = None,
    ) -> Device:
        if name in self._devices:
            raise TopologyError(f"duplicate device {name!r}")
        device = Device(name=name, type=type, rack=rack, pod=pod)
        self._devices[name] = device
        self._adjacency[name] = {}
        return device

    def add_link(self, a: str, b: str, count: int = 1) -> None:
        """Connect two devices with ``count`` parallel links."""
        if a == b:
            raise TopologyError(f"self-link on {a!r}")
        for end in (a, b):
            if end not in self._devices:
                raise TopologyError(f"unknown device {end!r}")
        if count < 1:
            raise TopologyError(f"link count must be >= 1, got {count}")
        total = self._adjacency[a].get(b, 0) + count
        self._adjacency[a][b] = total
        self._adjacency[b][a] = total

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def device(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError:
            raise TopologyError(f"unknown device {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._devices

    def devices(self, type: Optional[DeviceType] = None) -> list[Device]:
        if type is None:
            return list(self._devices.values())
        return [d for d in self._devices.values() if d.type is type]

    def servers(self) -> list[Device]:
        return self.devices(DeviceType.SERVER)

    def neighbors(self, name: str) -> list[str]:
        self.device(name)
        return list(self._adjacency[name])

    def link_count(self, a: str, b: str) -> int:
        """Number of parallel links between two devices (0 if none)."""
        self.device(a)
        self.device(b)
        return self._adjacency[a].get(b, 0)

    def counts(self) -> dict[str, int]:
        """Device census by role — the rows of Table 3."""
        out: dict[str, int] = {}
        for device in self._devices.values():
            out[device.type.value] = out.get(device.type.value, 0) + 1
        out["total"] = sum(
            v for k, v in out.items() if k != DeviceType.EXTERNAL.value
        )
        return out

    def hops_from(self, name: str) -> dict[str, int]:
        """Hop count from ``name`` to every device it can reach, by one
        breadth-first search (parallel links count as one hop)."""
        self.device(name)
        hops = {name: 0}
        frontier = [name]
        while frontier:
            reached = []
            for node in frontier:
                depth = hops[node] + 1
                for neighbour in self._adjacency[node]:
                    if neighbour not in hops:
                        hops[neighbour] = depth
                        reached.append(neighbour)
            frontier = reached
        return hops

    def __len__(self) -> int:
        return len(self._devices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        links = sum(sum(n.values()) for n in self._adjacency.values()) // 2
        return f"Topology({self.name!r}, devices={len(self)}, links={links})"

    def validate_connected(self, among: Optional[Iterable[str]] = None) -> None:
        """Raise unless the given devices (default: all) are mutually
        reachable — catches generator bugs early."""
        nodes = list(among) if among is not None else list(self._devices)
        if not nodes:
            return
        reachable = self.hops_from(nodes[0])
        unreachable = [n for n in nodes if n not in reachable]
        if unreachable:
            raise TopologyError(
                f"devices not connected: {sorted(unreachable)[:5]}"
            )
