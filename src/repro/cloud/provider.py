"""Cloud providers as dependency data sources (§2, §4.2).

A :class:`CloudProvider` owns a DepDB filled by its local acquisition
modules and can derive the component-set that private auditing
operates on (§4.2.3): third-party routing elements and software packages,
under the identifiers the records carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.depdb.database import DepDB
from repro.errors import SpecificationError

__all__ = ["CloudProvider"]


@dataclass
class CloudProvider:
    """One provider participating in an audit.

    Attributes:
        name: Provider identity (e.g. ``Cloud1``).
        depdb: The provider's locally collected dependency data.
        include_kinds: Which record categories feed the component-set
            (default: network devices and software packages, the two
            third-party component classes PIA compares, §4.2.3).
    """

    name: str
    depdb: DepDB = field(default_factory=DepDB)
    include_kinds: tuple[str, ...] = ("network", "software")

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("provider name must be non-empty")
        allowed = {"network", "hardware", "software"}
        bad = [k for k in self.include_kinds if k not in allowed]
        if bad:
            raise SpecificationError(f"unknown record kinds: {bad}")

    def component_set(self, hosts: Optional[list[str]] = None) -> frozenset[str]:
        """Components backing this provider's service, under the
        identifiers its DepDB records carry.

        Args:
            hosts: Restrict to these hosts (default: every host in the
                provider's DepDB).
        """
        selected = hosts if hosts is not None else self.depdb.hosts()
        components: set[str] = set()
        for host in selected:
            if "network" in self.include_kinds:
                for record in self.depdb.network_paths(host):
                    components.update(record.route)
            if "hardware" in self.include_kinds:
                for record in self.depdb.hardware_of(host):
                    components.add(record.dep)
            if "software" in self.include_kinds:
                for record in self.depdb.software_on(host):
                    components.update(record.dep)
        if not components:
            raise SpecificationError(
                f"provider {self.name!r} produced an empty component-set"
            )
        return frozenset(components)
