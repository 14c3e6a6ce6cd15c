"""Unit tests for Paillier homomorphic encryption."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import generate_keypair
from repro.crypto.paillier import PaillierPrivateKey
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(bits=256, seed=0)


class TestKeypair:
    def test_modulus_size(self, keypair):
        public, _ = keypair
        assert 250 <= public.n.bit_length() <= 258

    def test_deterministic_for_seed(self):
        a_pub, _ = generate_keypair(bits=128, seed=5)
        b_pub, _ = generate_keypair(bits=128, seed=5)
        assert a_pub.n == b_pub.n

    def test_too_small_rejected(self):
        with pytest.raises(CryptoError):
            generate_keypair(bits=32)

    def test_ciphertext_bytes(self, keypair):
        public, _ = keypair
        assert public.ciphertext_bytes == (public.nsq.bit_length() + 7) // 8


class TestEncryptDecrypt:
    def test_round_trip(self, keypair):
        public, private = keypair
        for message in (0, 1, 42, 10**9):
            assert private.decrypt(public.encrypt(message)) == message

    def test_messages_reduced_mod_n(self, keypair):
        public, private = keypair
        assert private.decrypt(public.encrypt(public.n + 5)) == 5

    def test_randomised_ciphertexts(self, keypair):
        public, _ = keypair
        rng = random.Random(1)
        assert public.encrypt(7, rng) != public.encrypt(7, rng)

    def test_invalid_ciphertext_rejected(self, keypair):
        _, private = keypair
        with pytest.raises(CryptoError):
            private.decrypt(0)


class TestHomomorphisms:
    def test_addition(self, keypair):
        public, private = keypair
        c = public.add(public.encrypt(20), public.encrypt(22))
        assert private.decrypt(c) == 42

    def test_multiply_plain(self, keypair):
        public, private = keypair
        c = public.multiply_plain(public.encrypt(21), 2)
        assert private.decrypt(c) == 42

    def test_encrypt_zero_rerandomises(self, keypair):
        public, private = keypair
        c = public.add(public.encrypt(42), public.encrypt(0))
        assert private.decrypt(c) == 42

    def test_horner_style_evaluation(self, keypair):
        """The exact operation KS performs: evaluate an encrypted
        polynomial at a plaintext point."""
        public, private = keypair
        coeffs = [3, 0, 2]  # 3 + 2x^2
        x = 7
        encrypted = [public.encrypt(c) for c in coeffs]
        acc = encrypted[-1]
        for coeff in reversed(encrypted[:-1]):
            acc = public.add(public.multiply_plain(acc, x), coeff)
        assert private.decrypt(acc) == 3 + 2 * 49


class TestCRTDecryption:
    def test_keypair_carries_factors(self, keypair):
        public, private = keypair
        assert private.p is not None and private.q is not None
        assert private.p * private.q == public.n

    @settings(max_examples=60, deadline=None)
    @given(message=st.integers(0, (1 << 256) - 1), noise_seed=st.integers())
    def test_crt_matches_plain_path(self, keypair, message, noise_seed):
        """CRT and single-exponentiation decryption are bit-identical."""
        public, private = keypair
        plain_key = PaillierPrivateKey(
            public=public, lam=private.lam, mu=private.mu
        )
        ciphertext = public.encrypt(message, random.Random(noise_seed))
        assert private.decrypt(ciphertext) == plain_key.decrypt(ciphertext)

    def test_plain_path_still_round_trips(self, keypair):
        public, private = keypair
        plain_key = PaillierPrivateKey(
            public=public, lam=private.lam, mu=private.mu
        )
        assert plain_key.decrypt(public.encrypt(424242)) == 424242


class TestBatchedEncryptionSplit:
    def test_draw_noise_plus_raw_encrypt_matches_encrypt(self, keypair):
        """The staged hot path reproduces the one-shot transcript."""
        public, _ = keypair
        staged_rng, direct_rng = random.Random(9), random.Random(9)
        for message in (0, 1, 123456789, public.n - 1):
            r = public.draw_noise(staged_rng)
            staged = public.raw_encrypt(message, pow(r, public.n, public.nsq))
            assert staged == public.encrypt(message, direct_rng)

    def test_fallback_rng_is_reproducible(self, keypair, monkeypatch):
        """rng=None draws from one seeded process-wide stream, not a
        fresh OS-seeded Random per call."""
        from repro.crypto import paillier as paillier_module

        public, private = keypair
        monkeypatch.setattr(
            paillier_module, "_FALLBACK_RNG", random.Random(77)
        )
        first = public.encrypt(5)
        monkeypatch.setattr(
            paillier_module, "_FALLBACK_RNG", random.Random(77)
        )
        assert public.encrypt(5) == first
        assert private.decrypt(first) == 5
