"""Deterministic hash families (MinHash, element digests).

MinHash needs *m* independent hash functions mapping component identifiers
to comparable integers; all parties must use the same family (§4.2.2).
We derive each member from SHA-256 with a family seed and member index,
giving 64-bit outputs with no inter-party coordination beyond the seed.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.errors import CryptoError

__all__ = ["HashFamily"]

_MAX64 = (1 << 64) - 1


class HashFamily:
    """A family of ``size`` deterministic 64-bit hash functions.

    >>> family = HashFamily(size=4, seed=42)
    >>> family(0, "libc6") == family(0, "libc6")
    True
    >>> family(0, "libc6") != family(1, "libc6")
    True
    """

    def __init__(self, size: int, seed: int = 0) -> None:
        if size < 1:
            raise CryptoError(f"hash family size must be >= 1, got {size}")
        self.size = size
        self.seed = seed

    def __call__(self, index: int, element: str) -> int:
        if not 0 <= index < self.size:
            raise CryptoError(
                f"hash index {index} outside family of size {self.size}"
            )
        payload = f"{self.seed}:{index}:{element}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")

    def hash_matrix(self, elements: Sequence[str]) -> np.ndarray:
        """All family values for a pool at once: ``out[i, j] = h_i(e_j)``.

        Bit-identical to calling ``self(i, e_j)`` per cell, but the
        per-member digest prefix ``"{seed}:{i}:"`` is absorbed into one
        reusable hash context per row (``copy()`` + element update), and
        each row materialises as a single NumPy vector — the MinHash
        hot path consumes the matrix with vectorised column minima.
        """
        if not elements:
            raise CryptoError("cannot hash an empty element pool")
        encoded = [e.encode("utf-8") for e in elements]
        out = np.empty((self.size, len(encoded)), dtype=np.uint64)
        for index in range(self.size):
            prefix = hashlib.sha256(f"{self.seed}:{index}:".encode("utf-8"))
            row = bytearray()
            for data in encoded:
                ctx = prefix.copy()
                ctx.update(data)
                row += ctx.digest()[:8]
            out[index] = np.frombuffer(bytes(row), dtype=">u8")
        return out
