"""Unit tests for prime generation and testing."""

import random

import pytest

from repro.crypto import (
    generate_prime,
    generate_safe_prime,
    is_probable_prime,
    safe_prime,
)
from repro.crypto.primes import WELL_KNOWN_SAFE_PRIMES
from repro.errors import CryptoError


class TestMillerRabin:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 7919, 104729, 2**31 - 1])
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize(
        "n", [0, 1, 4, 100, 7917, 2**31 - 3, 561, 41041, 825265]
    )
    def test_known_composites_and_carmichael(self, n):
        assert not is_probable_prime(n)

    def test_large_known_prime(self):
        # 2^127 - 1, Mersenne prime.
        assert is_probable_prime(2**127 - 1)

    def test_witnesses_leave_the_global_stream_alone(self):
        """The witnesses come from a stream seeded by ``n``: a verdict
        draws nothing from ``random`` and is the same on every call."""
        random.seed(5)
        state = random.getstate()
        verdicts = [is_probable_prime(n) for n in (561, 2**61 - 1) * 2]
        assert verdicts == [False, True, False, True]
        assert random.getstate() == state


class TestGeneration:
    def test_generate_prime_bit_length(self):
        rng = random.Random(0)
        p = generate_prime(64, rng)
        assert p.bit_length() == 64
        assert is_probable_prime(p)

    def test_generate_prime_deterministic(self):
        assert generate_prime(48, random.Random(1)) == generate_prime(
            48, random.Random(1)
        )

    def test_too_small_rejected(self):
        with pytest.raises(CryptoError):
            generate_prime(4)

    def test_generate_safe_prime(self):
        p = generate_safe_prime(40)
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)

    def test_generate_safe_prime_large_refused(self):
        with pytest.raises(CryptoError, match="impractical"):
            generate_safe_prime(1024)


class TestWellKnown:
    @pytest.mark.parametrize("bits", sorted(WELL_KNOWN_SAFE_PRIMES))
    def test_published_moduli_are_safe_primes(self, bits):
        p = WELL_KNOWN_SAFE_PRIMES[bits]
        assert p.bit_length() == bits
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)

    def test_safe_prime_dispatch(self):
        assert safe_prime(1024) == WELL_KNOWN_SAFE_PRIMES[1024]
        small = safe_prime(48)
        assert is_probable_prime(small)
