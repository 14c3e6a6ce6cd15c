"""Paillier additively-homomorphic encryption.

The Kissner–Song baseline (§6.3.2) builds on homomorphic crypto; Paillier
is the standard instantiation for additively-homomorphic set-operation
protocols:

* ``E(a) * E(b) = E(a + b)`` — ciphertext product adds plaintexts,
* ``E(a)^k = E(k * a)`` — exponentiation scales by a known constant,

which is exactly what encrypted-polynomial arithmetic needs.

Performance notes (the PIA fast path):

* Encryption splits into :meth:`PaillierPublicKey.draw_noise` (the RNG
  draw) and :meth:`PaillierPublicKey.raw_encrypt` (the arithmetic), so a
  batched driver can draw the whole noise sequence up front, compute all
  ``r^n mod n^2`` powers in one batch (or a process pool), and keep the
  encryption hot loop multiplication-only — with a transcript
  bit-identical to the one-at-a-time path.
* Decryption uses the CRT when the private key carries the prime
  factors: two half-size exponentiations modulo ``p^2`` and ``q^2``
  instead of one full-size one modulo ``n^2`` (~4x), with the identical
  plaintext result.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.crypto.primes import generate_prime
from repro.errors import CryptoError

__all__ = ["PaillierPublicKey", "PaillierPrivateKey", "generate_keypair"]

#: Fallback randomness for callers that do not thread an RNG.  A single
#: process-wide seeded stream (instead of a fresh OS-seeded ``Random``
#: per call) keeps ad-hoc encryptions reproducible run-to-run — the
#: engine determinism contract.  Protocol code always passes an explicit
#: per-party RNG and never touches this.
_FALLBACK_RNG = random.Random(0x1DAA5EED)


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public parameters: modulus n (with nsq = n^2 cached)."""

    n: int
    nsq: int

    @property
    def ciphertext_bytes(self) -> int:
        """Wire size of one ciphertext (bandwidth accounting)."""
        return (self.nsq.bit_length() + 7) // 8

    def draw_noise(self, rng: random.Random) -> int:
        """Draw encryption randomness ``r`` coprime to ``n``.

        Exposed so batched drivers can reproduce the exact draw sequence
        of the serial path before exponentiating in bulk.
        """
        while True:
            r = rng.randrange(2, self.n)
            if math.gcd(r, self.n) == 1:
                return r

    def raw_encrypt(self, message: int, noise_power: int) -> int:
        """E(m) given a precomputed ``noise_power = r^n mod n^2``.

        ``(1+n)^m mod n^2 == 1 + m*n mod n^2`` (binomial), so the hot
        loop is two multiplications once the noise power is in hand.
        """
        first = (1 + (message % self.n) * self.n) % self.nsq
        return (first * noise_power) % self.nsq

    def encrypt(self, message: int, rng: Optional[random.Random] = None) -> int:
        """E(m) = (1+n)^m * r^n mod n^2 with fresh randomness r.

        Without an explicit ``rng`` a process-wide *seeded* stream is
        used, so even ad-hoc encryptions are reproducible run-to-run;
        protocols thread their own per-party RNGs.
        """
        r = self.draw_noise(rng if rng is not None else _FALLBACK_RNG)
        return self.raw_encrypt(message, pow(r, self.n, self.nsq))

    def add(self, c1: int, c2: int) -> int:
        """Homomorphic addition: E(a) (+) E(b) = E(a+b)."""
        return (c1 * c2) % self.nsq

    def multiply_plain(self, c: int, k: int) -> int:
        """E(a) (*) k = E(k * a) for a known scalar k."""
        return pow(c, k % self.n, self.nsq)


def _l_function(x: int, divisor: int) -> int:
    """Paillier's L(x) = (x - 1) / divisor."""
    return (x - 1) // divisor


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Decryption key: lam = lcm(p-1, q-1), mu = L(g^lam)^-1 mod n.

    When the prime factors ``p``/``q`` are present (keys from
    :func:`generate_keypair`), decryption runs through the CRT: the same
    plaintext from two half-size exponentiations.  Keys constructed
    without factors fall back to the plain single-exponentiation path.
    """

    public: PaillierPublicKey
    lam: int
    mu: int
    p: Optional[int] = None
    q: Optional[int] = None

    @cached_property
    def _crt(self) -> tuple[int, int, int, int, int]:
        """(p^2, q^2, hp, hq, q^-1 mod p) — precomputed CRT constants."""
        p, q, n = self.p, self.q, self.public.n
        psq, qsq = p * p, q * q
        # hp = L_p((1+n)^(p-1) mod p^2)^-1 mod p, and likewise for q.
        hp = pow(_l_function(pow(1 + n, p - 1, psq), p), -1, p)
        hq = pow(_l_function(pow(1 + n, q - 1, qsq), q), -1, q)
        return psq, qsq, hp, hq, pow(q, -1, p)

    def decrypt(self, ciphertext: int) -> int:
        if not 0 < ciphertext < self.public.nsq:
            raise CryptoError("ciphertext outside the Paillier group")
        if self.p is None or self.q is None:
            n = self.public.n
            x = pow(ciphertext, self.lam, self.public.nsq)
            return (_l_function(x, n) * self.mu) % n
        return self._decrypt_crt(ciphertext)

    def _decrypt_crt(self, ciphertext: int) -> int:
        """CRT decryption (bit-identical plaintext, ~4x less work)."""
        p, q = self.p, self.q
        psq, qsq, hp, hq, q_inv = self._crt
        mp = _l_function(pow(ciphertext, p - 1, psq), p) * hp % p
        mq = _l_function(pow(ciphertext, q - 1, qsq), q) * hq % q
        return mq + q * ((mp - mq) * q_inv % p)


def generate_keypair(
    bits: int = 1024, seed: Optional[int] = None
) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a Paillier keypair with an n of roughly ``bits`` bits.

    Args:
        bits: Modulus size; benchmarks use 1024 to match the paper,
            tests use smaller sizes for speed.
        seed: Seeded generation for reproducible tests.
    """
    if bits < 64:
        raise CryptoError(f"Paillier modulus too small: {bits} bits")
    rng = random.Random(seed)
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if math.gcd(n, (p - 1) * (q - 1)) == 1:
            break
    lam = math.lcm(p - 1, q - 1)
    public = PaillierPublicKey(n=n, nsq=n * n)
    # g = 1 + n  =>  L(g^lam mod n^2) = lam mod n, so mu = lam^-1 mod n.
    x = pow(1 + n, lam, public.nsq)
    mu = pow(_l_function(x, n), -1, n)
    return public, PaillierPrivateKey(
        public=public, lam=lam, mu=mu, p=p, q=q
    )
