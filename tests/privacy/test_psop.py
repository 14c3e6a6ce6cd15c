"""Unit tests for the P-SOP private set-intersection cardinality protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import SharedGroup
from repro.errors import ProtocolError
from repro.privacy import PSOPParty, PSOPProtocol, jaccard
from tests.privacy.oracles import jaccard_multiset


@pytest.fixture(scope="module")
def group() -> SharedGroup:
    return SharedGroup.with_bits(768)


def run_psop(group, datasets: dict, seeds=None):
    parties = [
        PSOPParty(name, elements, group, seed=i if seeds is None else seeds[i])
        for i, (name, elements) in enumerate(datasets.items())
    ]
    return PSOPProtocol(parties).run()


class TestCorrectness:
    def test_two_party_counts(self, group):
        result = run_psop(
            group, {"A": ["x", "y", "z"], "B": ["y", "z", "w"]}
        )
        assert result.intersection == 2
        assert result.union == 4
        assert result.jaccard == pytest.approx(0.5)

    def test_matches_plaintext_jaccard(self, group):
        sets = {"A": {"a", "b", "c"}, "B": {"b", "c", "d"}, "C": {"c", "d"}}
        result = run_psop(group, sets)
        assert result.jaccard == pytest.approx(jaccard(list(sets.values())))

    def test_disjoint_sets(self, group):
        result = run_psop(group, {"A": ["a1", "a2"], "B": ["b1"]})
        assert result.intersection == 0
        assert result.jaccard == 0.0

    def test_identical_sets(self, group):
        result = run_psop(group, {"A": ["x", "y"], "B": ["x", "y"]})
        assert result.jaccard == 1.0

    def test_multiset_expansion(self, group):
        a = {"e": 2, "f": 1}
        b = {"e": 1, "g": 1}
        result = run_psop(group, {"A": a, "B": b})
        assert result.jaccard == pytest.approx(jaccard_multiset([a, b]))

    def test_duplicate_list_elements_counted_as_multiset(self, group):
        result = run_psop(group, {"A": ["e", "e"], "B": ["e"]})
        # A = {e:2}, B = {e:1}: intersection 1, union 2.
        assert result.intersection == 1
        assert result.union == 2


class TestPrivacyMechanics:
    def test_wire_values_differ_from_plain_hashes(self, group):
        """Nothing resembling the raw element hash crosses the wire."""
        from repro.crypto import hash_to_group

        party = PSOPParty("A", ["secret"], group, seed=0)
        initial = party.initial_dataset()
        assert hash_to_group("secret||1", group) not in initial

    def test_order_of_encryption_irrelevant(self, group):
        """Final ciphertexts for common elements match across datasets."""
        result = run_psop(group, {"A": ["shared"], "B": ["shared"]})
        assert result.intersection == 1


class TestAccounting:
    def test_bytes_scale_with_elements_and_parties(self, group):
        small = run_psop(group, {"A": ["x"], "B": ["y"]})
        large = run_psop(
            group,
            {"A": [f"x{i}" for i in range(10)], "B": [f"y{i}" for i in range(10)]},
        )
        assert large.total_bytes > small.total_bytes
        three = run_psop(group, {"A": ["x"], "B": ["y"], "C": ["z"]})
        assert three.total_bytes > small.total_bytes

    def test_expected_wire_volume_two_parties(self, group):
        """k=2, n=1 each: ring hop moves 2 datasets once, share moves 2
        datasets to 1 receiver each: 4 element transfers."""
        result = run_psop(group, {"A": ["x"], "B": ["y"]})
        assert result.total_bytes == 4 * group.element_bytes

    def test_per_party_sent_covers_all(self, group):
        result = run_psop(group, {"A": ["x"], "B": ["y"], "C": ["z"]})
        assert set(result.bytes_sent) == {"A", "B", "C"}


class TestValidation:
    def test_needs_two_parties(self, group):
        with pytest.raises(ProtocolError):
            PSOPProtocol([PSOPParty("A", ["x"], group, seed=0)])

    def test_duplicate_names_rejected(self, group):
        parties = [
            PSOPParty("A", ["x"], group, seed=0),
            PSOPParty("A", ["y"], group, seed=1),
        ]
        with pytest.raises(ProtocolError):
            PSOPProtocol(parties)

    def test_empty_dataset_rejected(self, group):
        with pytest.raises(ProtocolError):
            PSOPParty("A", [], group)

    def test_mixed_groups_rejected(self, group):
        # A different modulus size: with_bits() caches per size, and
        # groups over the same prime now compare equal by design.
        other = SharedGroup.with_bits(1024)
        parties = [
            PSOPParty("A", ["x"], group, seed=0),
            PSOPParty("B", ["y"], other, seed=1),
        ]
        with pytest.raises(ProtocolError, match="share one group"):
            PSOPProtocol(parties)

    def test_invalid_multiset_count(self, group):
        with pytest.raises(ProtocolError):
            PSOPParty("A", {"e": 0}, group)


@settings(max_examples=10, deadline=None)
@given(
    left=st.sets(st.integers(0, 30), min_size=1, max_size=10),
    right=st.sets(st.integers(0, 30), min_size=1, max_size=10),
)
def test_psop_equals_plaintext_jaccard_property(left, right):
    group = SharedGroup.with_bits(768)
    sets = {"L": [f"e{i}" for i in left], "R": [f"e{i}" for i in right]}
    result = run_psop(group, sets)
    truth = jaccard([set(sets["L"]), set(sets["R"])])
    assert result.jaccard == pytest.approx(truth)
