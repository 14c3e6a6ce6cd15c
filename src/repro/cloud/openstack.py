"""OpenStack-like VM placement simulator (§6.2.2).

The hardware case study hinges on a real OpenStack behaviour: "the
automatic virtual machine placement policy randomly selects from the
least loaded resources to host a VM", which silently co-located two
redundant Riak VMs on one server.  :class:`Scheduler` reproduces that
policy — least-loaded hosts first, random tie-break — plus the pinning
and capacity bookkeeping needed to script the case study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import PlacementError

__all__ = ["Host", "Placement", "Scheduler"]


@dataclass
class Host:
    """A hypervisor with a VM capacity."""

    name: str
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise PlacementError(
                f"host {self.name!r} needs capacity >= 1, got {self.capacity}"
            )


@dataclass(frozen=True)
class Placement:
    """One VM-to-host assignment."""

    vm: str
    host: str
    pinned: bool = False


class Scheduler:
    """Least-loaded-random VM scheduler.

    >>> sched = Scheduler([Host("A", 4), Host("B", 4)], seed=0)
    >>> sched.pin("vm0", "A")
    Placement(vm='vm0', host='A', pinned=True)
    >>> sched.place("vm1").host   # B is least loaded
    'B'
    """

    def __init__(self, hosts: Sequence[Host], seed: Optional[int] = 0):
        if not hosts:
            raise PlacementError("scheduler needs at least one host")
        names = [h.name for h in hosts]
        if len(set(names)) != len(names):
            raise PlacementError(f"duplicate host names: {names}")
        self._hosts = {h.name: h for h in hosts}
        self._load: dict[str, int] = {h.name: 0 for h in hosts}
        self._placements: dict[str, Placement] = {}
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #

    def place(self, vm: str) -> Placement:
        """Place a VM on the least-loaded host (random tie-break)."""
        if vm in self._placements:
            raise PlacementError(f"VM {vm!r} already placed")
        candidates = [
            name
            for name, host in self._hosts.items()
            if self._load[name] < host.capacity
        ]
        if not candidates:
            raise PlacementError(f"no capacity left for VM {vm!r}")
        least = min(self._load[name] for name in candidates)
        tied = [name for name in candidates if self._load[name] == least]
        choice = tied[int(self._rng.integers(0, len(tied)))]
        placement = Placement(vm=vm, host=choice)
        self._commit(placement)
        return placement

    def pin(self, vm: str, host: str) -> Placement:
        """Operator-forced placement (the pre-existing VMs of §6.2.2)."""
        if vm in self._placements:
            raise PlacementError(f"VM {vm!r} already placed")
        if host not in self._hosts:
            raise PlacementError(f"unknown host {host!r}")
        if self._load[host] >= self._hosts[host].capacity:
            raise PlacementError(f"host {host!r} is full")
        placement = Placement(vm=vm, host=host, pinned=True)
        self._commit(placement)
        return placement

    def _commit(self, placement: Placement) -> None:
        self._placements[placement.vm] = placement
        self._load[placement.host] += 1

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def placement_of(self, vm: str) -> Placement:
        try:
            return self._placements[vm]
        except KeyError:
            raise PlacementError(f"VM {vm!r} is not placed") from None

    def host_of(self, vm: str) -> str:
        return self.placement_of(vm).host

    def placements(self) -> list[Placement]:
        return list(self._placements.values())
