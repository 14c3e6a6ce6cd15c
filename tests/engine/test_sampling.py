"""Unit tests for the failure sampling algorithm."""

import pytest

from repro import FailureSampler, minimal_risk_groups
from repro.errors import AnalysisError


class TestFailureSampler:
    def test_finds_all_minimal_rgs_on_small_graph(self, figure_4a):
        sampler = FailureSampler(figure_4a, seed=0)
        result = sampler.run(3000)
        reference = minimal_risk_groups(figure_4a)
        assert result.detection_rate(reference) == 1.0
        assert set(result.risk_groups) == set(reference)

    def test_sampled_groups_are_risk_groups(self, deep_graph):
        result = FailureSampler(deep_graph, seed=1).run(2000)
        assert result.risk_groups
        for group in result.risk_groups:
            assert deep_graph.evaluate(group)

    def test_minimised_groups_are_minimal(self, deep_graph):
        result = FailureSampler(deep_graph, seed=2, minimise=True).run(2000)
        for group in result.risk_groups:
            for event in group:
                assert not deep_graph.evaluate(set(group) - {event})

    def test_deterministic_for_fixed_seed(self, figure_4a):
        first = FailureSampler(figure_4a, seed=42).run(500)
        second = FailureSampler(figure_4a, seed=42).run(500)
        assert first.risk_groups == second.risk_groups
        assert first.top_failures == second.top_failures

    def test_raw_mode_collects_failing_sets(self, figure_4a):
        result = FailureSampler(figure_4a, seed=3, minimise=False).run(500)
        assert not result.minimised
        # Raw failing sets are risk groups but possibly non-minimal.
        for group in result.risk_groups:
            assert figure_4a.evaluate(group)

    def test_raw_mode_detects_less_or_equal(self, deep_graph):
        reference = minimal_risk_groups(deep_graph)
        raw = FailureSampler(deep_graph, seed=4, minimise=False).run(1000)
        refined = FailureSampler(deep_graph, seed=4, minimise=True).run(1000)
        assert raw.detection_rate(reference) <= refined.detection_rate(
            reference
        )

    def test_probability_estimate_matches_weighted_sampling(self, figure_4b):
        sampler = FailureSampler(figure_4b, use_weights=True, seed=5)
        result = sampler.run(40_000)
        # True Pr(T) = 0.224 (paper); sampling should land close.
        assert result.top_probability_estimate == pytest.approx(0.224, abs=0.02)

    def test_use_weights_requires_weighted_graph(self, figure_4a):
        with pytest.raises(Exception):
            FailureSampler(figure_4a, use_weights=True)

    def test_more_rounds_find_no_fewer_groups(self, deep_graph):
        few = FailureSampler(deep_graph, seed=6, sample_probability=0.15).run(50)
        many = FailureSampler(deep_graph, seed=6, sample_probability=0.15).run(
            5000
        )
        reference = minimal_risk_groups(deep_graph)
        assert many.detection_rate(reference) >= few.detection_rate(reference)

    def test_invalid_parameters(self, figure_4a):
        with pytest.raises(AnalysisError):
            FailureSampler(figure_4a, sample_probability=0.0)
        with pytest.raises(AnalysisError):
            FailureSampler(figure_4a, batch_size=0)
        with pytest.raises(AnalysisError):
            FailureSampler(figure_4a).run(0)

    def test_detection_rate_needs_reference(self, figure_4a):
        result = FailureSampler(figure_4a, seed=7).run(100)
        with pytest.raises(AnalysisError):
            result.detection_rate([])

    def test_result_bookkeeping(self, figure_4a):
        rounds = 800
        result = FailureSampler(figure_4a, seed=8).run(rounds)
        assert result.rounds == rounds
        assert 0 <= result.top_failures <= rounds
        assert result.top_probability_estimate == result.top_failures / rounds
