"""Lab IaaS cloud for the §6.2.2 hardware case study (Figure 6b).

A small OpenStack-managed cloud: four servers behind two top-of-rack
switches, two core routers, and eight VMs.  The paper deploys a redundant
Riak store on VM7 and VM8; OpenStack's least-loaded placement puts both
VMs on the *same* server (Server2), which SIA exposes as the top-ranked
risk groups {Server2}, {Switch1}, {Core1 & Core2}, {VM7 & VM8}.

Hardware component models are chosen so that, when re-auditing all server
pairs, **{Server2, Server3}** is the unique pair with no unexpected RG —
the re-deployment the paper's report recommends:

* Server1 and Server3 share the ``SED900`` disk batch,
* Server1 and Server4 share the ``Intel-X5550`` CPU model,
* Server2 and Server4 share the ``Intel-X520`` NIC model,
* Server1/Server2 share Switch1 and Server3/Server4 share Switch2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.graph import INTERNET, DeviceType, Topology

__all__ = ["LabCloudPlan", "lab_cloud", "LAB_HARDWARE", "LAB_SERVERS"]

LAB_SERVERS = ("Server1", "Server2", "Server3", "Server4")

#: Per-server physical components: (type, model) pairs.  Shared models are
#: the hardware common-mode failures this case study is about.
LAB_HARDWARE: dict[str, tuple[tuple[str, str], ...]] = {
    "Server1": (
        ("CPU", "Intel-X5550"),
        ("Disk", "SED900"),
        ("NIC", "I350-S1"),
        ("RAM", "DDR3-S1"),
    ),
    "Server2": (
        ("CPU", "Intel-E5620"),
        ("Disk", "WD2003"),
        ("NIC", "Intel-X520"),
        ("RAM", "DDR3-S2"),
    ),
    "Server3": (
        ("CPU", "AMD-6174"),
        ("Disk", "SED900"),
        ("NIC", "I350-S3"),
        ("RAM", "DDR3-S3"),
    ),
    "Server4": (
        ("CPU", "Intel-X5550"),
        ("Disk", "ST1000"),
        ("NIC", "Intel-X520"),
        ("RAM", "DDR3-S4"),
    ),
}


@dataclass(frozen=True)
class LabCloudPlan:
    """Static description of the Figure-6b lab cloud."""

    servers: tuple[str, ...] = LAB_SERVERS
    vms: int = 8
    hardware: dict = field(default_factory=lambda: dict(LAB_HARDWARE))

    def tor_of(self, server: str) -> str:
        """Server1/Server2 sit behind Switch1; Server3/Server4 behind
        Switch2."""
        index = self.servers.index(server)
        return "Switch1" if index < 2 else "Switch2"

    def routes(self, server: str) -> tuple[tuple[str, ...], ...]:
        """Redundant routes server -> Internet (via either core)."""
        tor = self.tor_of(server)
        return ((tor, "Core1"), (tor, "Core2"))


def lab_cloud(plan: LabCloudPlan | None = None, name: str = "lab-cloud") -> Topology:
    """Build the lab topology (servers + 4 switches + Internet)."""
    plan = plan or LabCloudPlan()
    topo = Topology(name)
    topo.add_device("Core1", DeviceType.CORE)
    topo.add_device("Core2", DeviceType.CORE)
    topo.add_device("Switch1", DeviceType.TOR)
    topo.add_device("Switch2", DeviceType.TOR)
    topo.add_device(INTERNET, DeviceType.EXTERNAL)
    for switch in ("Switch1", "Switch2"):
        topo.add_link(switch, "Core1")
        topo.add_link(switch, "Core2")
    topo.add_link("Core1", INTERNET)
    topo.add_link("Core2", INTERNET)
    for server in plan.servers:
        topo.add_device(server, DeviceType.SERVER)
        topo.add_link(server, plan.tor_of(server))
    topo.validate_connected()
    return topo
