"""Pluggable dependency acquisition modules — DAMs (§3).

Every data source runs one or more DAMs that collect raw dependency data
and adapt it to the uniform Table-1 record format, then store it in a
DepDB.  The paper's prototype wraps NSDMiner (network), lshw (hardware)
and apt-rdepends (software); ours substitute simulated-but-faithful
collectors for the first two, and software records enter a DepDB as
given (the Table-2 stacks of :mod:`repro.swinventory`).

A DAM plugs in by subclassing :class:`DependencyAcquisitionModule`: a
provider picks the modules matching its infrastructure, and INDaaS only
ever sees uniform records.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator

from repro.depdb.database import DepDB
from repro.depdb.records import DependencyRecord
from repro.errors import AcquisitionError

__all__ = ["DependencyAcquisitionModule", "acquire_into"]


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
