"""Risk-group ranking and independence scores (§4.1.3–§4.1.4).

Two pluggable ranking algorithms:

* **size-based** — orders RGs by how few components they contain; a size-1
  RG means a single point of failure despite redundancy.  Used at the
  component-set level and on unweighted fault graphs.
* **failure-probability** — orders RGs by *relative importance*
  ``I_C = Pr(C)/Pr(T)``; available whenever weights exist (fault-set level
  or weighted fault graphs).

From a ranking, §4.1.4 derives a per-deployment *independence score*:
``sum(size(c_i))`` over the top-n RGs for size ranking (bigger = more
independent), or ``sum(I_{c_i})`` for probability ranking (smaller = more
independent, since big importances mean likely correlated outages).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.probability import cut_probability, top_event_probability
from repro.errors import AnalysisError

__all__ = [
    "RankingMethod",
    "RankedRiskGroup",
    "rank_by_size",
    "rank_by_probability",
    "rank_risk_groups",
    "independence_score",
]


class RankingMethod(enum.Enum):
    """Which pluggable ranking algorithm to use."""

    SIZE = "size"
    PROBABILITY = "probability"

    @property
    def higher_score_is_more_independent(self) -> bool:
        """Direction of the §4.1.4 independence score for this method."""
        return self is RankingMethod.SIZE


@dataclass(frozen=True)
class RankedRiskGroup:
    """One entry of an RG-ranking list.

    Attributes:
        rank: 1-based position in the ranking (1 = most critical).
        events: The risk group's basic failure events.
        probability: ``Pr(C)`` when weights were available, else ``None``.
        importance: Relative importance ``Pr(C)/Pr(T)``, else ``None``.
    """

    rank: int
    events: frozenset[str]
    probability: Optional[float] = None
    importance: Optional[float] = None

    @property
    def size(self) -> int:
        return len(self.events)

    def describe(self) -> str:
        members = " & ".join(sorted(self.events))
        extras = [f"size={self.size}"]
        if self.probability is not None:
            extras.append(f"Pr={self.probability:.4g}")
        if self.importance is not None:
            extras.append(f"I={self.importance:.4g}")
        return f"#{self.rank} {{{members}}} ({', '.join(extras)})"


def rank_by_size(
    risk_groups: Sequence[frozenset[str]],
) -> list[RankedRiskGroup]:
    """Rank RGs by ascending size (§4.1.3, size-based ranking).

    The paper notes SIA "randomly orders RGs with the same size"; we break
    ties lexicographically instead so audits are reproducible.
    """
    ordered = sorted(risk_groups, key=lambda s: (len(s), sorted(s)))
    return [
        RankedRiskGroup(rank=i + 1, events=frozenset(rg))
        for i, rg in enumerate(ordered)
    ]


def rank_by_probability(
    risk_groups: Sequence[frozenset[str]],
    probabilities: Mapping[str, float],
    top_probability: Optional[float] = None,
) -> list[RankedRiskGroup]:
    """Rank RGs by descending relative importance (§4.1.3).

    Args:
        top_probability: Pre-computed ``Pr(T)``; computed from the RG
            family by :func:`top_event_probability` when omitted.
    """
    if not risk_groups:
        raise AnalysisError("cannot rank an empty risk-group collection")
    if top_probability is None:
        top_probability = top_event_probability(
            [frozenset(r) for r in risk_groups], probabilities
        )
    if not 0.0 < top_probability <= 1.0:
        raise AnalysisError(
            f"top-event probability must be in (0,1], got {top_probability}"
        )
    entries = []
    for rg in risk_groups:
        # Sorted once, for the tie-break; the product's own sort of a
        # sorted list is one linear pass.  The weight is I_C = Pr(C) /
        # Pr(T) (§4.1.3).
        members = sorted(rg)
        prob = cut_probability(members, probabilities)
        entries.append((prob / top_probability, prob, members, frozenset(rg)))
    entries.sort(key=lambda t: (-t[0], len(t[2]), t[2]))
    return [
        RankedRiskGroup(
            rank=i + 1, events=events, probability=prob, importance=imp
        )
        for i, (imp, prob, _, events) in enumerate(entries)
    ]


def rank_risk_groups(
    risk_groups: Sequence[frozenset[str]],
    method: RankingMethod,
    probabilities: Optional[Mapping[str, float]] = None,
    top_probability: Optional[float] = None,
) -> list[RankedRiskGroup]:
    """Dispatch to the requested pluggable ranking algorithm."""
    if method is RankingMethod.SIZE:
        return rank_by_size(risk_groups)
    if method is RankingMethod.PROBABILITY:
        if probabilities is None:
            raise AnalysisError(
                "probability ranking needs per-event failure probabilities"
            )
        return rank_by_probability(
            risk_groups, probabilities, top_probability=top_probability
        )
    raise AnalysisError(f"unknown ranking method {method!r}")


def independence_score(
    ranking: Sequence[RankedRiskGroup],
    method: RankingMethod,
    top_n: Optional[int] = None,
) -> float:
    """Per-deployment independence score, §4.1.4.

    Args:
        ranking: The RG-ranking list of one deployment.
        top_n: How many of the top-ranked RGs enter the score (``n`` in the
            paper's formulas); defaults to the whole list.

    Returns:
        ``sum(size(c_i))`` for size ranking or ``sum(I_{c_i})`` for
        probability ranking.  Use
        :attr:`RankingMethod.higher_score_is_more_independent` to compare
        deployments correctly.
    """
    if not ranking:
        raise AnalysisError("cannot score an empty ranking")
    n = len(ranking) if top_n is None else min(top_n, len(ranking))
    if n < 1:
        raise AnalysisError(f"top_n must be >= 1, got {top_n}")
    head = ranking[:n]
    if method is RankingMethod.SIZE:
        return float(sum(entry.size for entry in head))
    if method is RankingMethod.PROBABILITY:
        missing = [e for e in head if e.importance is None]
        if missing:
            raise AnalysisError(
                "ranking entries lack importances; rank with "
                "RankingMethod.PROBABILITY first"
            )
        return float(sum(entry.importance for entry in head))
    raise AnalysisError(f"unknown ranking method {method!r}")
