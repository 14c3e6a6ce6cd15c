"""Three-stage fat-tree generator (§6.3.1, Table 3).

The evaluation topologies A/B/C are standard k-ary fat trees [Mysore et
al., PortLand, SIGCOMM'09]: with ``k``-port switches there are ``k`` pods,
each holding ``k/2`` top-of-rack (edge) and ``k/2`` aggregation switches;
``(k/2)^2`` core routers connect the pods; each ToR hosts ``k/2`` servers.

======== ======= ====== ===== ======= ========
  k      core    agg    ToR   servers total
======== ======= ====== ===== ======= ========
  16     64      128    128   1,024   1,344
  24     144     288    288   3,456   4,176
  48     576     1,152  1,152 27,648  30,528
======== ======= ====== ===== ======= ========

Core router ``core-{g}-{j}`` belongs to core *group* ``g``; the g-th
aggregation switch of every pod connects to exactly the g-th core group,
which is the structural fact that shapes the minimal risk groups of
fat-tree deployments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError
from repro.topology.graph import INTERNET, DeviceType, Topology

__all__ = ["FatTreeConfig", "fat_tree", "TOPOLOGY_A", "TOPOLOGY_B", "TOPOLOGY_C"]


@dataclass(frozen=True)
class FatTreeConfig:
    """Parameters of a k-ary fat tree.

    Attributes:
        ports: Switch port count ``k`` (must be even and >= 4).
        attach_internet: Add the virtual ``Internet`` node behind all cores.
    """

    ports: int
    attach_internet: bool = True

    def __post_init__(self) -> None:
        if self.ports < 4 or self.ports % 2:
            raise TopologyError(
                f"fat tree needs an even port count >= 4, got {self.ports}"
            )

    @property
    def pods(self) -> int:
        return self.ports


#: Table 3 configurations.
TOPOLOGY_A = FatTreeConfig(ports=16)
TOPOLOGY_B = FatTreeConfig(ports=24)
TOPOLOGY_C = FatTreeConfig(ports=48)


def fat_tree(config: FatTreeConfig, name: str = "") -> Topology:
    """Generate the fat-tree :class:`Topology` for ``config``.

    Naming: ``core-{group}-{j}``, ``pod{p}-agg{a}``, ``pod{p}-tor{t}``,
    ``srv-p{p}-t{t}-{s}``.
    """
    k = config.ports
    half = k // 2
    topo = Topology(name or f"fat-tree-k{k}")

    # Core layer: half groups of half routers each.
    for group in range(half):
        for j in range(half):
            topo.add_device(f"core-{group}-{j}", DeviceType.CORE)
    if config.attach_internet:
        topo.add_device(INTERNET, DeviceType.EXTERNAL)
        for group in range(half):
            for j in range(half):
                topo.add_link(f"core-{group}-{j}", INTERNET)

    for pod in range(k):
        for a in range(half):
            agg = topo.add_device(
                f"pod{pod}-agg{a}", DeviceType.AGGREGATION, pod=pod
            )
            # The a-th aggregation switch uplinks to core group a.
            for j in range(half):
                topo.add_link(agg.name, f"core-{a}-{j}")
        for t in range(half):
            tor = topo.add_device(
                f"pod{pod}-tor{t}", DeviceType.TOR, pod=pod, rack=pod * half + t
            )
            for a in range(half):
                topo.add_link(tor.name, f"pod{pod}-agg{a}")
            for s in range(half):
                server = topo.add_device(
                    f"srv-p{pod}-t{t}-{s}",
                    DeviceType.SERVER,
                    pod=pod,
                    rack=pod * half + t,
                )
                topo.add_link(server.name, tor.name)
    return topo
