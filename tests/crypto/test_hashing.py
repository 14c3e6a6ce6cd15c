"""Unit tests for hash families and digests."""

import pytest

from repro.crypto import HashFamily
from repro.errors import CryptoError


class TestHashFamily:
    def test_deterministic(self):
        family = HashFamily(size=4, seed=1)
        assert family(0, "libc6") == family(0, "libc6")

    def test_members_independent(self):
        family = HashFamily(size=8, seed=1)
        values = {family(i, "libc6") for i in range(8)}
        assert len(values) == 8

    def test_seeds_change_family(self):
        assert HashFamily(4, seed=1)(0, "x") != HashFamily(4, seed=2)(0, "x")

    def test_64_bit_range(self):
        family = HashFamily(size=2, seed=0)
        value = family(0, "element")
        assert 0 <= value < 2**64

    def test_index_bounds(self):
        family = HashFamily(size=2, seed=0)
        with pytest.raises(CryptoError):
            family(2, "x")
        with pytest.raises(CryptoError):
            family(-1, "x")

    def test_invalid_size(self):
        with pytest.raises(CryptoError):
            HashFamily(size=0)
