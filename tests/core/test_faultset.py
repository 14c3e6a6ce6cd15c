"""Unit tests for the fault-set level of detail."""

import pytest

from repro import FaultSets, minimal_risk_groups
from repro.errors import FaultGraphError


class TestFaultSets:
    def test_probabilities_flat_map(self):
        fs = FaultSets.from_mapping(
            {"E1": {"A1": 0.1, "A2": 0.2}, "E2": {"A2": 0.2, "A3": 0.3}}
        )
        assert fs.probabilities() == {"A1": 0.1, "A2": 0.2, "A3": 0.3}

    def test_conflicting_probabilities_rejected(self):
        fs = FaultSets.from_mapping(
            {"E1": {"A2": 0.2}, "E2": {"A2": 0.3}}
        )
        with pytest.raises(FaultGraphError, match="conflicting"):
            fs.probabilities()

    def test_empty_fault_set_rejected(self):
        with pytest.raises(FaultGraphError, match="empty"):
            FaultSets.from_mapping({"E1": {}})

    def test_invalid_probability_rejected(self):
        with pytest.raises(FaultGraphError):
            FaultSets.from_mapping({"E1": {"A1": 1.5}})

    def test_component_sets_downgrade(self):
        fs = FaultSets.from_mapping({"E1": {"a": 0.1}, "E2": {"b": 0.2}})
        sets = fs.component_sets()
        assert sets.sets == {"E1": frozenset({"a"}), "E2": frozenset({"b"})}

    def test_to_fault_graph_carries_weights(self, figure_4b):
        assert figure_4b.probability_of("A1") == 0.1
        assert figure_4b.probability_of("A2") == 0.2
        assert figure_4b.probability_of("A3") == 0.3

    def test_weighted_graph_same_structure_as_unweighted(
        self, figure_4a, figure_4b
    ):
        assert minimal_risk_groups(figure_4a) == minimal_risk_groups(figure_4b)

    def test_required_passes_through(self):
        fs = FaultSets(
            {"E1": {"a": 0.1}, "E2": {"b": 0.1}, "E3": {"c": 0.1}},
            required=2,
        )
        graph = fs.to_fault_graph()
        assert graph.threshold(graph.top) == 2
