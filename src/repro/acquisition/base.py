"""Pluggable dependency acquisition modules — DAMs (§3).

Every data source runs one or more DAMs that collect raw dependency data
and adapt it to the uniform Table-1 record format, then store it in a
DepDB.  The paper's prototype wraps NSDMiner (network), lshw (hardware)
and apt-rdepends (software); ours substitute simulated-but-faithful
collectors over synthetic substrates (see DESIGN.md §3).

The registry lets deployments compose collectors by name, mirroring the
"pluggable" claim: a provider picks the modules matching its
infrastructure and INDaaS only ever sees uniform records.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Iterator, Type

from repro.depdb.database import DepDB
from repro.depdb.records import DependencyRecord
from repro.errors import AcquisitionError

__all__ = [
    "DependencyAcquisitionModule",
    "register_module",
    "module_names",
    "create_module",
    "acquire_into",
]


class DependencyAcquisitionModule(abc.ABC):
    """Base class for all DAMs.

    Subclasses set :attr:`kind` (``"network"``, ``"hardware"`` or
    ``"software"``) and implement :meth:`stream` — a generator, so
    arbitrarily large sources never materialise a record list.
    """

    #: Record category this module produces.
    kind: str = ""

    @abc.abstractmethod
    def stream(self) -> Iterator[DependencyRecord]:
        """Yield dependency records from this module's data source."""

    def collect(self) -> list[DependencyRecord]:
        """Every record of :meth:`stream`, as a list."""
        return list(self.stream())

    def adapt_into(self, depdb: DepDB, batch_size: int = 1024) -> int:
        """Stream records into ``depdb`` in dedup'd transactional batches.

        Returns the number of *new* records.  Raises
        :class:`AcquisitionError` when the source produced nothing at
        all — a collector that yields zero records is misconfigured,
        whereas one whose records were all already known is fine.
        """
        produced = 0

        def counted() -> Iterator[DependencyRecord]:
            nonlocal produced
            for record in self.stream():
                produced += 1
                yield record

        added = depdb.ingest(counted(), batch_size=batch_size)
        if produced == 0:
            raise AcquisitionError(
                f"{type(self).__name__} collected no records; "
                f"check its configuration"
            )
        return added

    def collect_into(self, depdb: DepDB) -> int:
        """Collect and store; returns the number of new records."""
        return self.adapt_into(depdb)


_REGISTRY: dict[str, Type[DependencyAcquisitionModule]] = {}


def register_module(
    name: str,
) -> Callable[[Type[DependencyAcquisitionModule]], Type[DependencyAcquisitionModule]]:
    """Class decorator adding a DAM to the plug-in registry."""

    def decorate(
        cls: Type[DependencyAcquisitionModule],
    ) -> Type[DependencyAcquisitionModule]:
        if name in _REGISTRY:
            raise AcquisitionError(f"module {name!r} already registered")
        if not issubclass(cls, DependencyAcquisitionModule):
            raise AcquisitionError(
                f"{cls.__name__} is not a DependencyAcquisitionModule"
            )
        _REGISTRY[name] = cls
        cls.module_name = name
        return cls

    return decorate


def module_names() -> list[str]:
    """Registered DAM names, sorted."""
    return sorted(_REGISTRY)


def create_module(name: str, /, **kwargs) -> DependencyAcquisitionModule:
    """Instantiate a registered DAM by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise AcquisitionError(
            f"unknown acquisition module {name!r}; "
            f"available: {module_names()}"
        ) from None
    return cls(**kwargs)


def acquire_into(
    depdb: DepDB, modules: Iterable[DependencyAcquisitionModule]
) -> dict[str, int]:
    """Run several DAMs into one DepDB (Step 3 of the §2 workflow).

    Returns new-record counts keyed by module class name (summed when
    several instances of one class run).
    """
    counts: dict[str, int] = {}
    for module in modules:
        name = type(module).__name__
        counts[name] = counts.get(name, 0) + module.adapt_into(depdb)
    return counts
