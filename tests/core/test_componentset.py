"""Unit tests for the component-set level of detail."""

import pytest

from repro import (
    ComponentSets,
    FaultSets,
    GateType,
    component_sets_from_graph,
    minimal_risk_groups,
)
from repro.errors import FaultGraphError


class TestComponentSets:
    def test_from_mapping_freezes(self):
        sets = ComponentSets.from_mapping({"E1": ["A1", "A2"]})
        assert sets.sets["E1"] == frozenset({"A1", "A2"})

    def test_empty_set_rejected(self):
        with pytest.raises(FaultGraphError, match="empty"):
            ComponentSets.from_mapping({"E1": []})

    def test_components_union(self):
        sets = ComponentSets.from_mapping(
            {"E1": ["A1", "A2"], "E2": ["A2", "A3"]}
        )
        assert sets.components() == frozenset({"A1", "A2", "A3"})


#: One and two sources, as component-sets and as fault-sets.
SOURCES = {
    "component-sets/1": (ComponentSets, {"A": ["x"]}),
    "component-sets/2": (ComponentSets, {"A": ["x"], "B": ["y"]}),
    "fault-sets/1": (FaultSets, {"A": {"x": 0.1}}),
    "fault-sets/2": (FaultSets, {"A": {"x": 0.1}, "B": {"y": 0.1}}),
}


@pytest.mark.parametrize("case", SOURCES)
class TestRequired:
    """``required`` counts live sources, so it lies in 1..sources,
    whatever the number of sources (one source used to skip the check
    and build a graph for any count)."""

    @pytest.mark.parametrize("too_many", [False, True], ids=["0", "m+1"])
    def test_outside_the_sources_rejected(self, case, too_many):
        cls, mapping = SOURCES[case]
        required = len(mapping) + 1 if too_many else 0
        with pytest.raises(
            FaultGraphError,
            match=rf"required={required} outside 1\.\.{len(mapping)}",
        ):
            cls(dict(mapping), required=required)

    def test_every_count_in_range_builds(self, case):
        cls, mapping = SOURCES[case]
        for required in (None, *range(1, len(mapping) + 1)):
            graph = cls(dict(mapping), required=required).to_fault_graph()
            assert graph.evaluate(["x", "y"][: len(mapping)])


class TestToFaultGraph:
    def test_and_of_ors_structure(self, figure_4a):
        top = figure_4a.top
        assert figure_4a.event(top).gate is GateType.AND
        assert set(figure_4a.children(top)) == {"E1", "E2"}
        assert figure_4a.event("E1").gate is GateType.OR
        # A2 is a shared leaf.
        assert set(figure_4a.parents("A2")) == {"E1", "E2"}

    def test_figure_4a_minimal_rgs(self, figure_4a):
        groups = minimal_risk_groups(figure_4a)
        assert groups == [frozenset({"A2"}), frozenset({"A1", "A3"})]

    def test_single_source_top_is_the_source(self):
        sets = ComponentSets.from_mapping({"only": ["a", "b"]})
        graph = sets.to_fault_graph()
        assert graph.top == "only"

    def test_partial_redundancy_uses_k_of_n(self):
        sets = ComponentSets(
            {"E1": ["a"], "E2": ["b"], "E3": ["c"]}, required=2
        )
        graph = sets.to_fault_graph()
        # Needs 2 alive of 3 => fails when 2 fail.
        assert graph.threshold(graph.top) == 2
        assert graph.evaluate(["a", "b"])
        assert not graph.evaluate(["a"])

    def test_default_requires_all_failures(self):
        sets = ComponentSets.from_mapping({"E1": ["a"], "E2": ["b"]})
        graph = sets.to_fault_graph()
        assert not graph.evaluate(["a"])
        assert graph.evaluate(["a", "b"])


class TestDowngrade:
    def test_round_trip_from_graph(self, figure_4a):
        sets = component_sets_from_graph(figure_4a)
        assert sets.sets == {
            "E1": frozenset({"A1", "A2"}),
            "E2": frozenset({"A2", "A3"}),
        }

    def test_downgrade_flattens_deep_structure(self, deep_graph):
        sets = component_sets_from_graph(deep_graph)
        assert sets.sets["S1"] == frozenset({"tor1", "core", "libc6"})
        assert sets.sets["S2"] == frozenset({"tor2", "core", "libc6"})

    def test_downgrade_is_pessimistic(self, deep_graph):
        """Flattening discards internal redundancy, so every cut set of
        the original graph is still a cut set of the flat one."""
        flat = component_sets_from_graph(deep_graph).to_fault_graph()
        for cut in minimal_risk_groups(deep_graph):
            assert flat.evaluate(cut)

    def test_downgrade_preserves_k_of_n_required(self):
        sets = ComponentSets(
            {"E1": ["a"], "E2": ["b"], "E3": ["c"]}, required=2
        )
        graph = sets.to_fault_graph()
        back = component_sets_from_graph(graph)
        assert back.required == 2
