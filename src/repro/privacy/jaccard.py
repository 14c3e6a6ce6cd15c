"""Jaccard similarity over component-sets (§4.2.2).

``J(S_0..S_{k-1}) = |S_0 ∩ ... ∩ S_{k-1}| / |S_0 ∪ ... ∪ S_{k-1}|`` — the
independence metric PIA computes privately.  J near 0 means the providers
are nearly disjoint (independent); the paper adopts J >= 0.75 as the
"significantly correlated" threshold (Walsh & Sirer's rule of thumb).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import AnalysisError

__all__ = [
    "jaccard",
    "SIGNIFICANT_CORRELATION",
    "is_significantly_correlated",
]

#: Datasets with J >= 0.75 are considered significantly correlated (§4.2.2).
SIGNIFICANT_CORRELATION = 0.75


def jaccard(sets: Sequence[Iterable[str]]) -> float:
    """Exact Jaccard similarity of two or more sets.

    >>> jaccard([{"a", "b"}, {"b", "c"}])
    0.3333333333333333
    """
    frozen = [frozenset(s) for s in sets]
    if len(frozen) < 2:
        raise AnalysisError("Jaccard needs at least two datasets")
    if any(not s for s in frozen):
        raise AnalysisError("Jaccard over an empty dataset is undefined")
    intersection = frozenset.intersection(*frozen)
    union = frozenset.union(*frozen)
    return len(intersection) / len(union)


def is_significantly_correlated(similarity: float) -> bool:
    """Apply the paper's J >= 0.75 correlation threshold."""
    if not 0.0 <= similarity <= 1.0 + 1e-9:
        raise AnalysisError(f"similarity outside [0,1]: {similarity}")
    return similarity >= SIGNIFICANT_CORRELATION
