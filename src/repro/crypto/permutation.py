"""Seeded random permutations.

Each P-SOP party shuffles every dataset it forwards so that positions
leak nothing about element identity (§4.2.2).  Seeded Fisher–Yates keeps
protocol runs reproducible in tests while remaining uniformly random for
any fixed seed choice.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, TypeVar

from repro.errors import CryptoError

__all__ = ["Permuter"]

T = TypeVar("T")


class Permuter:
    """A party's private shuffling source."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)

    def shuffle(self, items: Sequence[T]) -> list[T]:
        """Return a freshly permuted copy (input is never mutated)."""
        out = list(items)
        self._rng.shuffle(out)
        return out

    def permutation(self, n: int) -> list[int]:
        """A uniformly random permutation of range(n)."""
        if n < 0:
            raise CryptoError(f"permutation length must be >= 0, got {n}")
        out = list(range(n))
        self._rng.shuffle(out)
        return out
