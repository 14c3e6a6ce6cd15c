"""Audit specifications (Step 1 of the §2 workflow).

The auditing client tells the agent *what* to audit and *how*: the data
sources and servers involved, the desired redundancy level, which component
and dependency types to consider, the level of detail, and the metrics /
algorithms used to quantify independence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence, Union

from repro.core.events import check_count, check_real, check_seed
from repro.core.ranking import RankingMethod
from repro.errors import AnalysisError, SpecificationError

__all__ = ["DetailLevel", "RGAlgorithm", "AuditSpec"]


class DetailLevel(enum.Enum):
    """The three levels of detail of §4.1.1 (Figure 4)."""

    COMPONENT_SET = "component-set"
    FAULT_SET = "fault-set"
    FAULT_GRAPH = "fault-graph"


class RGAlgorithm(enum.Enum):
    """The two pluggable risk-group detection algorithms of §4.1.2."""

    MINIMAL = "minimal"
    SAMPLING = "sampling"


@dataclass
class AuditSpec:
    """One deployment-audit request.

    Attributes:
        deployment: Name of the candidate redundancy deployment.
        servers: The redundant servers (data sources) to audit.
        required: Live servers needed for the service to survive
            (n in n-of-m; default 1 = plain replication).
        programs: Software components of interest, global or per-server.
        destinations: Restrict network audits to these destinations.
        level: Level of detail for the dependency graph.
        algorithm: Risk-group detection algorithm.
        sampling_rounds: Rounds for the sampling algorithm.
        sampling_probability: Per-event failure chance during sampling.
        ranking: RG-ranking algorithm (size or probability).
        top_n: How many top RGs feed the independence score (§4.1.4).
        max_order: Optional cut-set truncation for the minimal algorithm.
        include_host_events: Model whole-server failures as basic events.
        seed: RNG seed for reproducible sampling audits.
        adaptive: Stop sampling early once the top-event estimate and
            RG discovery curve stabilise; ``sampling_rounds`` becomes a
            budget ceiling (see :mod:`repro.engine.adaptive`).  Off by
            default so exact-rounds results stay reproducible round for
            round.
    """

    deployment: str
    servers: tuple[str, ...]
    required: int = 1
    programs: Optional[Union[Sequence[str], Mapping[str, Sequence[str]]]] = None
    destinations: Optional[tuple[str, ...]] = None
    level: DetailLevel = DetailLevel.FAULT_GRAPH
    algorithm: RGAlgorithm = RGAlgorithm.MINIMAL
    sampling_rounds: int = 100_000
    sampling_probability: float = 0.5
    ranking: RankingMethod = RankingMethod.SIZE
    top_n: Optional[int] = None
    max_order: Optional[int] = None
    include_host_events: bool = True
    seed: Optional[int] = 0
    adaptive: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.servers = tuple(self.servers)
        if not self.deployment:
            raise SpecificationError("deployment name must be non-empty")
        if not self.servers:
            raise SpecificationError("spec needs at least one server")
        if len(set(self.servers)) != len(self.servers):
            raise SpecificationError(f"duplicate servers: {self.servers}")
        if not 1 <= self.required <= len(self.servers):
            raise SpecificationError(
                f"required={self.required} outside 1..{len(self.servers)}"
            )
        if self.destinations is not None:
            self.destinations = tuple(self.destinations)
        self.sampling_rounds = _count("sampling_rounds", self.sampling_rounds)
        _specified(check_real, "sampling_probability", self.sampling_probability)
        if not 0.0 < self.sampling_probability < 1.0:
            raise SpecificationError(
                "sampling_probability must be in (0,1), got "
                f"{self.sampling_probability}"
            )
        if self.top_n is not None:
            self.top_n = _count("top_n", self.top_n)
        if self.max_order is not None:
            self.max_order = _count("max_order", self.max_order)
        _specified(check_seed, self.seed)
        if self.seed is not None:
            self.seed = int(self.seed)
        if not isinstance(self.level, DetailLevel):
            raise SpecificationError(f"invalid level {self.level!r}")
        if not isinstance(self.algorithm, RGAlgorithm):
            raise SpecificationError(f"invalid algorithm {self.algorithm!r}")
        if not isinstance(self.ranking, RankingMethod):
            raise SpecificationError(f"invalid ranking {self.ranking!r}")

    @property
    def redundancy(self) -> int:
        """Replica count, i.e. the expected minimal RG size."""
        return len(self.servers)

    def with_servers(self, servers: Sequence[str]) -> "AuditSpec":
        """Clone this spec for a different server combination.

        Used when comparing many candidate deployments under identical
        auditing parameters (e.g. every pair of racks in §6.2.1).
        """
        return replace(
            self,
            deployment=" & ".join(servers),
            servers=tuple(servers),
            required=min(self.required, len(servers)),
            metadata=dict(self.metadata),
        )


def _count(name: str, value) -> int:
    """``value`` as an ``int`` if it passes :func:`check_count`."""
    _specified(check_count, name, value)
    return int(value)


def _specified(check, *args) -> None:
    """Run an argument ``check``, its :class:`AnalysisError` re-raised as
    the :class:`SpecificationError` a spec raises."""
    try:
        check(*args)
    except AnalysisError as exc:
        raise SpecificationError(str(exc)) from None
