"""Unit tests for Jaccard similarity."""

import pytest

from repro.errors import AnalysisError
from repro.privacy import (
    SIGNIFICANT_CORRELATION,
    is_significantly_correlated,
    jaccard,
)
from tests.privacy.oracles import jaccard_multiset


class TestJaccard:
    def test_two_sets(self):
        assert jaccard([{"a", "b"}, {"b", "c"}]) == pytest.approx(1 / 3)

    def test_identical_sets(self):
        assert jaccard([{"a"}, {"a"}]) == 1.0

    def test_disjoint_sets(self):
        assert jaccard([{"a"}, {"b"}]) == 0.0

    def test_multi_way(self):
        sets = [{"x", "a"}, {"x", "b"}, {"x", "c"}]
        assert jaccard(sets) == pytest.approx(1 / 4)

    def test_needs_two_sets(self):
        with pytest.raises(AnalysisError):
            jaccard([{"a"}])

    def test_empty_set_rejected(self):
        with pytest.raises(AnalysisError):
            jaccard([{"a"}, set()])


class TestJaccardMultiset:
    def test_min_over_max(self):
        a = {"x": 2, "y": 1}
        b = {"x": 1, "z": 1}
        # min-counts: x:1 => 1; max-counts: x:2 + y:1 + z:1 = 4
        assert jaccard_multiset([a, b]) == pytest.approx(1 / 4)

    def test_agrees_with_set_jaccard_when_counts_one(self):
        a = {"a": 1, "b": 1}
        b = {"b": 1, "c": 1}
        assert jaccard_multiset([a, b]) == jaccard([set(a), set(b)])

    def test_invalid_count(self):
        with pytest.raises(AnalysisError):
            jaccard_multiset([{"a": 0}, {"a": 1}])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            jaccard_multiset([{}, {"a": 1}])


class TestThreshold:
    def test_paper_value(self):
        assert SIGNIFICANT_CORRELATION == 0.75

    def test_flagging(self):
        assert is_significantly_correlated(0.8)
        assert is_significantly_correlated(0.75)
        assert not is_significantly_correlated(0.5)

    def test_invalid_similarity(self):
        with pytest.raises(AnalysisError):
            is_significantly_correlated(1.5)
