"""Unit tests for the failure sampling algorithm."""

import pytest

from repro import AuditEngine, minimal_risk_groups
from repro.errors import AnalysisError


def sample(graph, rounds, **options):
    return AuditEngine(n_workers=1).sample(graph, rounds, **options)


class TestFailureSampling:
    def test_finds_all_minimal_rgs_on_small_graph(self, figure_4a):
        result = sample(figure_4a, 3000, seed=0)
        reference = minimal_risk_groups(figure_4a)
        assert result.detection_rate(reference) == 1.0
        assert set(result.risk_groups) == set(reference)

    def test_sampled_groups_are_risk_groups(self, deep_graph):
        result = sample(deep_graph, 2000, seed=1)
        assert result.risk_groups
        for group in result.risk_groups:
            assert deep_graph.evaluate(group)

    def test_minimised_groups_are_minimal(self, deep_graph):
        result = sample(deep_graph, 2000, seed=2, minimise=True)
        for group in result.risk_groups:
            for event in group:
                assert not deep_graph.evaluate(set(group) - {event})

    def test_deterministic_for_fixed_seed(self, figure_4a):
        first = sample(figure_4a, 500, seed=42)
        second = sample(figure_4a, 500, seed=42)
        assert first.risk_groups == second.risk_groups
        assert first.top_failures == second.top_failures

    def test_raw_mode_collects_failing_sets(self, figure_4a):
        result = sample(figure_4a, 500, seed=3, minimise=False)
        assert not result.minimised
        # Raw failing sets are risk groups but possibly non-minimal.
        for group in result.risk_groups:
            assert figure_4a.evaluate(group)

    def test_raw_mode_detects_less_or_equal(self, deep_graph):
        reference = minimal_risk_groups(deep_graph)
        raw = sample(deep_graph, 1000, seed=4, minimise=False)
        refined = sample(deep_graph, 1000, seed=4, minimise=True)
        assert raw.detection_rate(reference) <= refined.detection_rate(
            reference
        )

    def test_graph_weights_do_not_move_the_draw(self, figure_4b):
        """Every event fails with ``sample_probability``; the graph's own
        weights are the exact route's input, never the sampler's."""
        reweighted = figure_4b.copy()
        for event in reweighted.basic_events():
            reweighted.set_probability(event, 0.9)
        ours = sample(figure_4b, 2000, seed=5, sample_probability=0.3)
        theirs = sample(reweighted, 2000, seed=5, sample_probability=0.3)
        assert theirs.risk_groups == ours.risk_groups
        assert theirs.top_failures == ours.top_failures

    def test_more_rounds_find_no_fewer_groups(self, deep_graph):
        few = sample(deep_graph, 50, seed=6, sample_probability=0.15)
        many = sample(deep_graph, 5000, seed=6, sample_probability=0.15)
        reference = minimal_risk_groups(deep_graph)
        assert many.detection_rate(reference) >= few.detection_rate(reference)

    def test_invalid_parameters(self, figure_4a):
        with pytest.raises(AnalysisError):
            sample(figure_4a, 100, sample_probability=0.0)
        with pytest.raises(AnalysisError):
            AuditEngine(n_workers=1, block_size=0)
        with pytest.raises(AnalysisError):
            sample(figure_4a, 0)

    def test_detection_rate_needs_reference(self, figure_4a):
        result = sample(figure_4a, 100, seed=7)
        with pytest.raises(AnalysisError):
            result.detection_rate([])

    def test_result_bookkeeping(self, figure_4a):
        rounds = 800
        result = sample(figure_4a, rounds, seed=8)
        assert result.rounds == rounds
        assert 0 <= result.top_failures <= rounds
        assert result.top_probability_estimate == result.top_failures / rounds
