"""Unit tests for component importance measures."""

import pytest

from repro import FaultGraph, GateType
from repro.core.bdd import compile_graph
from repro.core.importance import (
    birnbaum_importance,
    component_importance_ranking,
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

    def test_criticality_is_the_risk_reduction_fussell_vesely(self, figure_4b):
        """``(Pr(T) - Pr(T | c ok)) / Pr(T)``, read off the diagram, is the
        criticality column: why the table has no Fussell-Vesely column."""
        bdd = compile_graph(figure_4b)
        probs = figure_4b.probabilities()
        top = bdd.probability(probs)
        for entry in component_importance_ranking(figure_4b):
            repaired = bdd.probability(probs | {entry.component: 0.0})
            assert entry.criticality == pytest.approx(
                (top - repaired) / top, rel=1e-12
            )

    def test_describe(self, figure_4b):
        text = component_importance_ranking(figure_4b)[0].describe()
        assert "A2" in text and "I_B" in text

    def test_unweighted_graph_rejected(self, figure_4a):
        with pytest.raises(Exception):
            component_importance_ranking(figure_4a)

    def test_all_zero_weights_rank_without_dividing(self, figure_4b):
        """Criticality scaling with Pr(T) == 0 must come back 0.0."""
        zeroed = figure_4b.map_probabilities(lambda e: 0.0)
        ranking = component_importance_ranking(zeroed)
        assert len(ranking) == 3
        for entry in ranking:
            assert entry.criticality == 0.0
            # Birnbaum stays defined: with everything else working, A2
            # failing still fails the system.
        assert ranking[0].component == "A2"
        assert ranking[0].birnbaum == pytest.approx(1.0)
