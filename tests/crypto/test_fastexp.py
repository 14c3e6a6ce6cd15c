"""Property-based parity tests for the fast exponentiation toolbox.

Every fastexp primitive must agree bit-for-bit with builtin ``pow`` —
the protocols' bit-identical-results contract rests on it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.fastexp import (
    batch_pow,
    chunked,
    digit_table,
    multi_exp,
    pow_chunk,
)
from repro.errors import CryptoError

moduli = st.integers(2, 1 << 96)
bases = st.integers(0, 1 << 96)
exponents = st.integers(0, 1 << 160)


class TestDigitTable:
    def test_small_table_values(self):
        table = digit_table(3, 1000)
        assert table[0] == 1
        assert table[1] == 3
        assert table[7] == pow(3, 7, 1000)
        assert len(table) == 256

    def test_base_reduced(self):
        assert digit_table(17, 5) == digit_table(17 % 5, 5)

    def test_bad_modulus(self):
        with pytest.raises(CryptoError):
            digit_table(3, 1)


class TestFixedBasePow:
    @settings(max_examples=80, deadline=None)
    @given(base=bases, exponent=exponents, modulus=moduli)
    def test_matches_builtin_pow(self, base, exponent, modulus):
        table = digit_table(base, modulus)
        assert multi_exp((table,), (exponent,), modulus) == pow(
            base, exponent, modulus
        )

    def test_table_reuse_across_exponents(self):
        """One table, many exponents — the party-dataset reuse shape."""
        modulus = (1 << 89) - 1
        table = digit_table(0xDEADBEEF, modulus)
        for exponent in (0, 1, 255, 256, 1 << 64, (1 << 80) + 12345):
            assert multi_exp((table,), (exponent,), modulus) == pow(
                0xDEADBEEF, exponent, modulus
            )


class TestMultiExp:
    @settings(max_examples=80, deadline=None)
    @given(
        pairs=st.lists(st.tuples(bases, exponents), min_size=0, max_size=6),
        modulus=moduli,
    )
    def test_matches_pow_product(self, pairs, modulus):
        tables = [digit_table(b, modulus) for b, _ in pairs]
        exps = [e for _, e in pairs]
        expected = 1
        for b, e in pairs:
            expected = expected * pow(b, e, modulus) % modulus
        if not pairs:
            expected = 1 % modulus
        assert multi_exp(tables, exps, modulus) == expected

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CryptoError):
            multi_exp([digit_table(2, 97)], [1, 2], 97)

    def test_negative_exponent_rejected(self):
        with pytest.raises(CryptoError):
            multi_exp([digit_table(2, 97)], [-1], 97)


class TestBatchPow:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(bases, min_size=0, max_size=12),
        exponent=exponents,
        modulus=moduli,
    )
    def test_matches_builtin_pow(self, values, exponent, modulus):
        expected = [pow(v, exponent, modulus) for v in values]
        assert batch_pow(values, exponent, modulus) == expected

    def test_duplicates_share_work(self):
        values = [5, 7, 5, 5, 7]
        assert batch_pow(values, 1000003, 1 << 61) == [
            pow(v, 1000003, 1 << 61) for v in values
        ]

    def test_negative_exponent_rejected(self):
        with pytest.raises(CryptoError):
            batch_pow([2], -3, 97)


class TestChunkKernels:
    def test_pow_chunk(self):
        assert pow_chunk([2, 3], 10, 1000) == [24, 49]

    def test_chunked_fixed_sizes(self):
        assert chunked(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert chunked([], 3) == []
        with pytest.raises(CryptoError):
            chunked([1], 0)
