"""Prime generation and primality testing (pure Python).

The PIA protocols need safe primes (commutative Pohlig–Hellman
encryption) and ordinary primes (Paillier).  Generating large safe primes
in pure Python is minutes-slow, so for standard sizes we use the
well-known RFC 2409 / RFC 3526 MODP group moduli — published safe primes
designed for exactly this kind of exponentiation cryptography — and only
generate fresh primes for small test sizes.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import CryptoError

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "generate_safe_prime",
    "safe_prime",
    "WELL_KNOWN_SAFE_PRIMES",
]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
)

#: RFC 2409 (768/1024) and RFC 3526 (1536/2048) MODP safe primes.
WELL_KNOWN_SAFE_PRIMES: dict[int, int] = {
    768: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
        16,
    ),
    1024: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
        16,
    ),
    1536: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
        "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
        "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
        16,
    ),
    2048: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
        "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
        "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
        "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
        16,
    ),
}


def is_probable_prime(n: int) -> bool:
    """Miller–Rabin probabilistic primality test.

    With 40 rounds the error probability is below 2^-80, far below any
    other failure source in these protocols.  The witnesses are drawn
    from a stream seeded by ``n``, so every verdict is reproducible.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = random.Random(0xC0FFEE ^ (n & 0xFFFF))
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(40):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Generate a random probable prime of exactly ``bits`` bits."""
    if bits < 8:
        raise CryptoError(f"prime size too small: {bits} bits")
    rng = rng or random.Random()
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


def generate_safe_prime(bits: int) -> int:
    """Generate a fresh safe prime p = 2q + 1 (use only for small sizes).

    For >= 512 bits prefer :func:`safe_prime`, which returns a published
    MODP modulus instantly.
    """
    if bits < 16:
        raise CryptoError(f"safe prime size too small: {bits} bits")
    if bits > 512:
        raise CryptoError(
            f"generating a fresh {bits}-bit safe prime in pure Python is "
            f"impractical; use safe_prime({bits}) for a published modulus"
        )
    rng = random.Random()
    while True:
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if is_probable_prime(p):
            return p


def safe_prime(bits: int) -> int:
    """A safe prime of the requested size.

    Published MODP moduli are returned for 768/1024/1536/2048 bits;
    other sizes are freshly generated.
    """
    if bits in WELL_KNOWN_SAFE_PRIMES:
        return WELL_KNOWN_SAFE_PRIMES[bits]
    return generate_safe_prime(bits)
