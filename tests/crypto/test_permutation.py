"""Unit tests for seeded permutations."""

import pytest

from repro.crypto import Permuter
from repro.errors import CryptoError


class TestPermuter:
    def test_shuffle_preserves_multiset(self):
        permuter = Permuter(seed=0)
        items = [1, 2, 2, 3, 4]
        shuffled = permuter.shuffle(items)
        assert sorted(shuffled) == sorted(items)

    def test_input_not_mutated(self):
        items = [1, 2, 3]
        Permuter(seed=0).shuffle(items)
        assert items == [1, 2, 3]

    def test_deterministic_for_seed(self):
        assert Permuter(seed=3).shuffle(range(20)) == Permuter(seed=3).shuffle(
            range(20)
        )

    def test_permutation_is_bijection(self):
        perm = Permuter(seed=1).permutation(50)
        assert sorted(perm) == list(range(50))

    def test_negative_length_rejected(self):
        with pytest.raises(CryptoError):
            Permuter(seed=0).permutation(-1)


class TestInvert:
    def test_round_trip(self):
        perm = Permuter(seed=2).permutation(30)
        inverse = sorted(range(30), key=perm.__getitem__)
        for i, target in enumerate(perm):
            assert inverse[target] == i
