"""Plaintext oracle of P-SOP's multiset mode."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import AnalysisError


def jaccard_multiset(multisets: Sequence[Mapping[str, int]]) -> float:
    """Multiset Jaccard: min-counts over max-counts.

    P-SOP handles duplicate elements by tagging occurrences (``e||1``,
    ``e||2``, ...); this is the plaintext value that expansion computes.
    """
    if len(multisets) < 2:
        raise AnalysisError("Jaccard needs at least two datasets")
    keys: set[str] = set()
    for ms in multisets:
        if not ms:
            raise AnalysisError("Jaccard over an empty dataset is undefined")
        for element, count in ms.items():
            if count < 1:
                raise AnalysisError(
                    f"multiset count must be >= 1, got {count} for {element!r}"
                )
        keys.update(ms)
    inter = sum(min(ms.get(k, 0) for ms in multisets) for k in keys)
    union = sum(max(ms.get(k, 0) for ms in multisets) for k in keys)
    return inter / union
