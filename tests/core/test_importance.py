"""Unit tests for component importance measures."""

import pytest

from repro import FaultGraph, GateType, minimal_risk_groups
from repro.core.importance import (
    birnbaum_importance,
    component_importance_ranking,
    fussell_vesely_importance,
)
from repro.errors import AnalysisError


OVERRIDE = {"A1": 0.5}


def overridden(graph: FaultGraph) -> FaultGraph:
    """``graph`` with ``OVERRIDE`` written into its own weights."""
    return graph.map_probabilities(
        lambda e: OVERRIDE.get(e.name, e.probability)
    )


class TestBirnbaum:
    def test_series_system(self):
        """Pure OR: I_B(c) = prod over others of (1 - p_o)."""
        g = FaultGraph()
        g.add_basic_event("a", probability=0.1)
        g.add_basic_event("b", probability=0.2)
        g.add_gate("top", GateType.OR, ["a", "b"], top=True)
        result = birnbaum_importance(g)
        assert result["a"] == pytest.approx(0.8)   # 1 - p_b
        assert result["b"] == pytest.approx(0.9)   # 1 - p_a

    def test_parallel_system(self):
        """Pure AND: I_B(c) = product of the other probabilities."""
        g = FaultGraph()
        g.add_basic_event("a", probability=0.1)
        g.add_basic_event("b", probability=0.2)
        g.add_gate("top", GateType.AND, ["a", "b"], top=True)
        result = birnbaum_importance(g)
        assert result["a"] == pytest.approx(0.2)
        assert result["b"] == pytest.approx(0.1)

    def test_figure_4b(self, figure_4b):
        result = birnbaum_importance(figure_4b)
        # A2 failed => T certain; A2 ok => T needs A1 and A3 (0.03):
        assert result["A2"] == pytest.approx(1.0 - 0.03)
        # A1 failed => T = Pr(A2 or A3) = 0.44; A1 ok => T = Pr(A2) = 0.2:
        assert result["A1"] == pytest.approx(0.44 - 0.2)
        # The shared component dominates.
        assert result["A2"] > result["A1"] > 0
        assert result["A2"] > result["A3"] > 0

    def test_irrelevant_component_scores_zero(self):
        g = FaultGraph()
        g.add_basic_event("a", probability=0.5)
        g.add_basic_event("dead", probability=0.5)
        g.add_gate("sub", GateType.AND, ["a", "dead"])
        g.add_gate("top", GateType.OR, ["a", "sub"], top=True)
        # "dead" only matters through sub = a AND dead, absorbed by a.
        assert birnbaum_importance(g)["dead"] == pytest.approx(0.0)


    def test_partial_weight_override_keeps_graph_weights(self, figure_4b):
        """Regression: see the ranking's test of the same name."""
        assert birnbaum_importance(
            figure_4b, probabilities=OVERRIDE
        ) == birnbaum_importance(overridden(figure_4b))


class TestFussellVesely:
    def test_figure_4b(self, figure_4b, figure_4b_probs):
        groups = minimal_risk_groups(figure_4b)
        result = fussell_vesely_importance(groups, figure_4b_probs)
        # A2's only cut is {A2}: I_FV = 0.2 / 0.224.
        assert result["A2"] == pytest.approx(0.2 / 0.224)
        # A1 flows through {A1, A3}: 0.03 / 0.224.
        assert result["A1"] == pytest.approx(0.03 / 0.224)

    def test_needs_groups(self, figure_4b_probs):
        with pytest.raises(AnalysisError):
            fussell_vesely_importance([], figure_4b_probs)

    def test_zero_top_probability_yields_zero_importance(self):
        """Pr(T) == 0 must produce defined values, not a ZeroDivisionError."""
        groups = [frozenset({"a"}), frozenset({"b", "c"})]
        result = fussell_vesely_importance(
            groups, {"a": 0.0, "b": 0.0, "c": 0.0}
        )
        assert result == {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_explicit_zero_top_probability(self, figure_4b):
        groups = minimal_risk_groups(figure_4b)
        result = fussell_vesely_importance(
            groups, {"A1": 0.1, "A2": 0.2, "A3": 0.3}, top_probability=0.0
        )
        assert set(result.values()) == {0.0}


class TestRanking:
    def test_sorted_by_birnbaum(self, figure_4b):
        ranking = component_importance_ranking(figure_4b)
        assert ranking[0].component == "A2"
        values = [e.birnbaum for e in ranking]
        assert values == sorted(values, reverse=True)

    def test_criticality_consistency(self, figure_4b):
        """criticality = birnbaum * p / Pr(T)."""
        ranking = component_importance_ranking(figure_4b)
        for entry in ranking:
            assert entry.criticality == pytest.approx(
                entry.birnbaum * entry.probability / 0.224, rel=1e-9
            )

    def test_describe(self, figure_4b):
        text = component_importance_ranking(figure_4b)[0].describe()
        assert "A2" in text and "I_B" in text

    def test_unweighted_graph_rejected(self, figure_4a):
        with pytest.raises(Exception):
            component_importance_ranking(figure_4a)

    def test_partial_weight_override_keeps_graph_weights(self, figure_4b):
        """Regression: ``probabilities`` are overrides, not a replacement
        — naming one event must not unweight the rest (``no failure
        probability for 'A2'``)."""
        assert component_importance_ranking(
            figure_4b, probabilities=OVERRIDE
        ) == component_importance_ranking(overridden(figure_4b))

    def test_all_zero_weights_rank_without_dividing(self, figure_4b):
        """Criticality scaling with Pr(T) == 0 must come back 0.0."""
        zeroed = figure_4b.map_probabilities(lambda e: 0.0)
        ranking = component_importance_ranking(zeroed)
        assert len(ranking) == 3
        for entry in ranking:
            assert entry.criticality == 0.0
            assert entry.fussell_vesely == 0.0
            # Birnbaum stays defined: with everything else working, A2
            # failing still fails the system.
        assert ranking[0].component == "A2"
        assert ranking[0].birnbaum == pytest.approx(1.0)
