"""Fast modular exponentiation for the PIA hot loops.

Pure-Python ``pow`` is already C-optimised for a *single* modexp; the
wins here come from restructuring the protocols' exponentiation
workloads so that work is shared:

* :func:`digit_table` — fixed-base windowed exponentiation.  A base's
  power table (all ``base^d`` for one-window digits ``d``) is computed
  once and reused across a party's whole dataset, turning every later
  exponentiation into table lookups and multiplies with no per-call
  squaring chain of its own.
* :func:`multi_exp` — simultaneous (Straus/Shamir) multi-exponentiation
  ``prod_j base_j^{e_j}``.  All exponents are scanned window-by-window
  against precomputed digit tables, so one shared squaring chain serves
  every base.  This is exactly the shape of the Kissner–Song encrypted
  Horner evaluation ``Enc(λ(x)) = prod_j Enc(c_j)^{x^j}``: the encrypted
  coefficients are the fixed bases, each element contributes one
  exponent vector.
* :func:`batch_pow` — many bases, one shared exponent (the P-SOP ring
  collapsed to ``h^(e_0 e_1 ... e_{k-1})``), with duplicate bases
  computed once.

Digits are byte-aligned (window = 8 bits) so exponent digit extraction
is a single ``int.to_bytes`` call instead of per-window shifting.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CryptoError

__all__ = [
    "WINDOW_BITS",
    "digit_table",
    "multi_exp",
    "batch_pow",
    "pow_chunk",
    "chunked",
]

#: Window width in bits.  Byte-aligned so ``int.to_bytes`` yields digits.
WINDOW_BITS = 8
_RADIX = 1 << WINDOW_BITS


def digit_table(base: int, modulus: int) -> tuple[int, ...]:
    """Power table ``(base^0, base^1, ..., base^(2^w - 1)) mod modulus``.

    Computed once per fixed base and reused for every exponentiation
    against it (one table costs ``2^w - 2`` multiplications; each later
    exponentiation then needs no per-base squarings at all).
    """
    if modulus < 2:
        raise CryptoError(f"modulus must be >= 2, got {modulus}")
    b = base % modulus
    table = [1 % modulus, b] + [0] * (_RADIX - 2)
    for d in range(2, _RADIX):
        table[d] = table[d - 1] * b % modulus
    return tuple(table)


def _digit_rows(exponents: Sequence[int]) -> tuple[list[bytes], int]:
    """Big-endian byte digits of every exponent, left-padded to a common
    width.  Returns ``(rows, width)``."""
    width = 1
    for e in exponents:
        if e < 0:
            raise CryptoError(f"negative exponent: {e}")
        width = max(width, (e.bit_length() + 7) // 8)
    return [e.to_bytes(width, "big") for e in exponents], width


def multi_exp(
    tables: Sequence[Sequence[int]],
    exponents: Sequence[int],
    modulus: int,
) -> int:
    """Simultaneous multi-exponentiation ``prod_j base_j^{e_j} mod m``.

    ``tables[j]`` must be :func:`digit_table` of base ``j``.  One shared
    squaring chain (``acc^256`` per byte position, a single C call)
    serves every base, so the cost is ``positions`` squaring-chains plus
    at most one multiply per base per position — far below running
    ``len(tables)`` separate exponentiations.
    """
    if len(tables) != len(exponents):
        raise CryptoError(
            f"{len(tables)} tables but {len(exponents)} exponents"
        )
    if modulus < 2:
        raise CryptoError(f"modulus must be >= 2, got {modulus}")
    if not tables:
        return 1 % modulus
    rows, width = _digit_rows(exponents)
    acc = 1
    for pos in range(width):
        if acc != 1:
            acc = pow(acc, _RADIX, modulus)
        for table, row in zip(tables, rows):
            d = row[pos]
            if d:
                acc = acc * table[d] % modulus
    return acc % modulus


def batch_pow(
    bases: Sequence[int],
    exponent: int,
    modulus: int,
) -> list[int]:
    """``[pow(b, exponent, modulus) for b in bases]`` with shared work.

    Each *distinct* base is exponentiated once — in the collapsed P-SOP
    ring the same hashed element appears in every provider's dataset, so
    shared elements cost one modexp total instead of one per provider.
    """
    if modulus < 2:
        raise CryptoError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise CryptoError(f"negative exponent: {exponent}")
    memo: dict[int, int] = {}
    out = []
    for b in bases:
        power = memo.get(b)
        if power is None:
            power = pow(b, exponent, modulus)
            memo[b] = power
        out.append(power)
    return out


# --------------------------------------------------------------------- #
# Process-pool-friendly chunk kernels (module-level => picklable).
# --------------------------------------------------------------------- #


def pow_chunk(
    bases: Sequence[int], exponent: int, modulus: int
) -> list[int]:
    """Worker kernel: one shared-exponent chunk of a batched pow."""
    return [pow(b, exponent, modulus) for b in bases]


def chunked(items: Sequence, size: int) -> list[Sequence]:
    """Fixed-size chunks (chunking never depends on the worker count, so
    fanned-out results merge bit-identically to inline execution)."""
    if size < 1:
        raise CryptoError(f"chunk size must be >= 1, got {size}")
    items = list(items)
    return [items[i : i + size] for i in range(0, len(items), size)]
