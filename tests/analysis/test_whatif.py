"""Unit tests for what-if mitigation analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ComponentSets, minimal_risk_groups
from repro.analysis.planner import MitigationPlanner
from repro.analysis.whatif import Duplicate, Harden, evaluate_mitigations
from repro.core.bdd import compile_graph
from repro.errors import AnalysisError
from tests.core.evaluators import bn_top_probability
from tests.core.test_property_core import fault_graphs


@pytest.fixture
def weighted_graph():
    """Two sources sharing one switch; everything fails with p=0.1."""
    sets = ComponentSets.from_mapping(
        {"S1": ["tor1", "shared-agg"], "S2": ["tor2", "shared-agg"]}
    )
    return sets.to_fault_graph().map_probabilities(lambda e: 0.1)


class TestHarden:
    def test_reduces_probability(self, weighted_graph):
        mitigated = Harden("shared-agg", 0.01).apply(weighted_graph)
        assert mitigated.probability_of("shared-agg") == 0.01
        # Input untouched.
        assert weighted_graph.probability_of("shared-agg") == 0.1

    def test_cannot_raise_probability(self, weighted_graph):
        with pytest.raises(AnalysisError, match="must not raise"):
            Harden("shared-agg", 0.5).apply(weighted_graph)

    def test_unknown_component(self, weighted_graph):
        with pytest.raises(AnalysisError):
            Harden("ghost", 0.01).apply(weighted_graph)

    def test_gate_rejected(self, weighted_graph):
        with pytest.raises(AnalysisError, match="gate"):
            Harden("S1", 0.01).apply(weighted_graph)


class TestDuplicate:
    def test_removes_singleton_risk_group(self, weighted_graph):
        before = minimal_risk_groups(weighted_graph)
        assert frozenset({"shared-agg"}) in before
        mitigated = Duplicate("shared-agg").apply(weighted_graph)
        after = minimal_risk_groups(mitigated)
        assert frozenset({"shared-agg"}) not in after
        assert frozenset(
            {"shared-agg#primary", "shared-agg#replica"}
        ) in after

    def test_probability_drops(self, weighted_graph):
        probs_before = weighted_graph.probabilities()
        before = compile_graph(weighted_graph).probability(probs_before)
        mitigated = Duplicate("shared-agg").apply(weighted_graph)
        after = compile_graph(mitigated).probability(
            mitigated.probabilities()
        )
        assert after < before

    def test_custom_replica_probability(self, weighted_graph):
        mitigated = Duplicate(
            "shared-agg", replica_probability=0.02
        ).apply(weighted_graph)
        assert mitigated.probability_of("shared-agg#replica") == 0.02

    def test_duplicate_the_top_leaf(self):
        from repro import FaultGraph

        g = FaultGraph()
        g.add_basic_event("only", probability=0.3)
        g.set_top("only")
        mitigated = Duplicate("only").apply(g)
        assert mitigated.top == "only#pair"
        assert compile_graph(mitigated).probability(
            mitigated.probabilities()
        ) == pytest.approx(0.09)

    def test_gate_rejected(self, weighted_graph):
        with pytest.raises(AnalysisError):
            Duplicate("S1").apply(weighted_graph)

    def test_duplicating_twice_still_validates(self, weighted_graph):
        """Re-duplicating targets the surviving primary, not the pair."""
        once = Duplicate("shared-agg").apply(weighted_graph)
        twice = Duplicate("shared-agg#primary").apply(once)
        twice.validate()
        assert "shared-agg#primary#pair" in twice
        # Killing the whole chain now takes three failures.
        groups = minimal_risk_groups(twice)
        assert frozenset(
            {
                "shared-agg#primary#primary",
                "shared-agg#primary#replica",
                "shared-agg#replica",
            }
        ) in groups

    def test_name_collision_raises_cleanly(self):
        """A graph already holding X#replica must not be silently mislabelled."""
        from repro import FaultGraph, GateType

        g = FaultGraph()
        g.add_basic_event("X", probability=0.1)
        g.add_basic_event("X#replica", probability=0.1)
        g.add_basic_event("X#primary", probability=0.1)
        g.add_gate(
            "top", GateType.OR, ["X", "X#replica", "X#primary"], top=True
        )
        with pytest.raises(AnalysisError, match="already"):
            Duplicate("X").apply(g)
        # The graph was not touched by the failed attempt.
        g.validate()

    def test_partial_collision_detected(self):
        from repro import FaultGraph, GateType

        g = FaultGraph()
        g.add_basic_event("X", probability=0.1)
        g.add_basic_event("X#pair", probability=0.1)
        g.add_gate("top", GateType.OR, ["X", "X#pair"], top=True)
        with pytest.raises(AnalysisError, match="X#pair"):
            Duplicate("X").apply(g)


class TestEvaluateMitigations:
    def test_ranked_by_resulting_probability(self, weighted_graph):
        outcomes = evaluate_mitigations(
            weighted_graph,
            [
                Harden("tor1", 0.01),            # minor: tor1 is redundant
                Duplicate("shared-agg"),         # major: kills the SPOF
                Harden("shared-agg", 0.05),      # middling
            ],
        )
        assert outcomes[0].mitigation.describe() == "duplicate shared-agg"
        probabilities = [o.probability_after for o in outcomes]
        assert probabilities == sorted(probabilities)

    def test_unexpected_rg_counts(self, weighted_graph):
        (outcome,) = evaluate_mitigations(
            weighted_graph, [Duplicate("shared-agg")]
        )
        assert outcome.unexpected_before == 1
        assert outcome.unexpected_after == 0
        assert outcome.absolute_reduction > 0
        assert 0 < outcome.relative_reduction < 1
        assert "duplicate" in outcome.describe()

    def test_empty_mitigations_rejected(self, weighted_graph):
        with pytest.raises(AnalysisError):
            evaluate_mitigations(weighted_graph, [])

    def test_relative_reduction_defined_at_zero_baseline(self):
        """Pr(before) == 0 yields 0.0, the same convention as the
        zero-risk importance guards."""
        from repro.analysis.whatif import MitigationOutcome

        outcome = MitigationOutcome(
            mitigation=Harden("x", 0.0),
            probability_before=0.0,
            probability_after=0.0,
            unexpected_before=0,
            unexpected_after=0,
        )
        assert outcome.relative_reduction == 0.0
        assert outcome.absolute_reduction == 0.0

    def test_zero_weighted_graph_evaluates(self, weighted_graph):
        """End to end with Pr(T) == 0: no division anywhere blows up."""
        zeroed = weighted_graph.map_probabilities(lambda e: 0.0)
        (outcome,) = evaluate_mitigations(zeroed, [Duplicate("shared-agg")])
        assert outcome.probability_before == 0.0
        assert outcome.relative_reduction == 0.0

    def test_partial_weight_override_keeps_graph_weights(self, weighted_graph):
        """Regression: the baseline was evaluated from the override dict
        alone (``no failure probability for 'tor1'``) although the merged
        graph it was compiled from carried every weight."""
        override = {"shared-agg": 0.5}
        (outcome,) = evaluate_mitigations(
            weighted_graph, [Harden("shared-agg", 0.01)], probabilities=override
        )
        merged = weighted_graph.map_probabilities(
            lambda e: override.get(e.name, e.probability)
        )
        assert outcome.probability_before == compile_graph(merged).probability(
            merged.probabilities()
        )
        plan = MitigationPlanner(weighted_graph, probabilities=override).plan()
        assert outcome.probability_before == plan.baseline_probability
        assert outcome.unexpected_before == plan.baseline_unexpected

    def test_graph_never_mutated(self, weighted_graph):
        before = weighted_graph.stats()
        evaluate_mitigations(
            weighted_graph,
            [Duplicate("shared-agg"), Harden("tor1", 0.01)],
        )
        assert weighted_graph.stats() == before


# Graph-level metamorphic laws on random weighted graphs (the replicated-
# service availability model of arXiv:2306.13334: a replica or a better
# component can only help), each value cross-checked against 2^n state
# enumeration, which shares no code with the diagram.


def weighted(graph, data):
    weight = st.floats(0.01, 0.99)
    weights = {leaf: data.draw(weight) for leaf in graph.basic_events()}
    return graph.map_probabilities(lambda e: weights[e.name])


def diagram_probability(graph) -> float:
    """``Pr(T)`` from the graph's diagram, held to state enumeration."""
    probs = graph.probabilities()
    value = compile_graph(graph).probability(probs)
    assert abs(value - bn_top_probability(graph, probs)) <= 1e-12
    return value


@settings(max_examples=40, deadline=None)
@given(fault_graphs(), st.data())
def test_adding_a_replica_never_raises_failure_probability(graph, data):
    graph = weighted(graph, data)
    component = data.draw(st.sampled_from(graph.basic_events()))
    replicated = Duplicate(component).apply(graph)
    assert diagram_probability(replicated) <= (
        diagram_probability(graph) + 1e-12
    )


@settings(max_examples=40, deadline=None)
@given(fault_graphs(), st.data())
def test_hardening_is_monotone(graph, data):
    graph = weighted(graph, data)
    component = data.draw(st.sampled_from(graph.basic_events()))
    current = graph.probability_of(component)
    low, high = sorted(data.draw(st.floats(0.0, current)) for _ in range(2))
    at_low, at_high = (
        diagram_probability(Harden(component, q).apply(graph))
        for q in (low, high)
    )
    assert at_low <= at_high + 1e-12
    assert at_high <= diagram_probability(graph) + 1e-12
