"""Hardware dependency acquisition — the lshw substitute (§3).

``lshw`` dumps a machine's physical configuration (CPU, disks, NICs,
RAM).  Our substitute reads the same information from a hardware
inventory — a ``{server: [(type, model), ...]}`` mapping such as
:data:`repro.topology.lab.LAB_HARDWARE` — and adapts it to
``<hw, type, dep>`` records.  Shared component *models* across servers
are exactly the common-mode hardware risks audits should surface
(firmware bugs hit whole model batches, as in the §6.2.2 case study).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from repro.acquisition.base import DependencyAcquisitionModule
from repro.depdb.records import HardwareDependency
from repro.errors import AcquisitionError

__all__ = ["HardwareInventoryCollector"]

#: type alias: server -> sequence of (component_type, model) pairs.
InventoryMapping = Mapping[str, Sequence[tuple[str, str]]]


class HardwareInventoryCollector(DependencyAcquisitionModule):
    """Inventory-backed hardware collector.

    Args:
        inventory: ``{server: [(type, model), ...]}`` — the per-machine
            component listing an lshw sweep would produce.
        servers: Restrict collection to these servers (default: all in
            the inventory).
    """

    kind = "hardware"

    def __init__(
        self,
        inventory: InventoryMapping,
        servers: Optional[Sequence[str]] = None,
    ) -> None:
        if not inventory:
            raise AcquisitionError("hardware inventory is empty")
        self.inventory = {
            server: tuple((str(t), str(m)) for t, m in components)
            for server, components in inventory.items()
        }
        if servers is None:
            self.servers = list(self.inventory)
        else:
            missing = [s for s in servers if s not in self.inventory]
            if missing:
                raise AcquisitionError(
                    f"servers missing from hardware inventory: {missing}"
                )
            self.servers = list(servers)

    def stream(self) -> Iterator[HardwareDependency]:
        for server in self.servers:
            components = self.inventory[server]
            if not components:
                raise AcquisitionError(
                    f"server {server!r} has an empty hardware listing"
                )
            for component_type, model in components:
                yield HardwareDependency(
                    hw=server, type=component_type, dep=model
                )
