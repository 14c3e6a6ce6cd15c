"""Unit tests for the mitigation planner."""

import inspect
import json

import pytest

import repro
from repro import ComponentSets
from repro.analysis.planner import MitigationPlan, MitigationPlanner
from repro.analysis.whatif import Duplicate, Harden, evaluate_mitigations
from repro.engine import AuditEngine, SIAAuditor
from repro.errors import AnalysisError


@pytest.fixture
def weighted_graph():
    """Two servers behind one shared aggregation switch, varied weights."""
    sets = ComponentSets.from_mapping(
        {"S1": ["tor1", "shared-agg"], "S2": ["tor2", "shared-agg"]}
    )
    graph = sets.to_fault_graph("web & db")
    weights = {"tor1": 0.02, "tor2": 0.03, "shared-agg": 0.1}
    return graph.map_probabilities(lambda e: weights.get(e.name))


class TestCandidates:
    def test_harden_and_duplicate_per_component(self, weighted_graph):
        planner = MitigationPlanner(weighted_graph)
        candidates = planner.candidates(top_k=2)
        assert len(candidates) == 4
        kinds = [(type(c), c.component) for c in candidates]
        # The shared switch dominates the importance ranking.
        assert kinds[0] == (Harden, "shared-agg")
        assert kinds[1] == (Duplicate, "shared-agg")

    def test_harden_factor_scales_probability(self, weighted_graph):
        planner = MitigationPlanner(weighted_graph)
        harden = planner.candidates(top_k=1, harden_factor=0.5)[0]
        assert harden.probability == pytest.approx(0.05)

    def test_zero_probability_components_skipped(self, weighted_graph):
        zeroed = weighted_graph.map_probabilities(lambda e: 0.0)
        with pytest.raises(AnalysisError, match="no viable"):
            MitigationPlanner(zeroed).candidates(top_k=2)

    def test_zero_probability_leader_does_not_consume_a_slot(
        self, weighted_graph
    ):
        """A p=0 component can still rank first on Birnbaum; viable
        components below it must fill the top_k slots."""
        hardened = weighted_graph.map_probabilities(
            lambda e: 0.0 if e.name == "shared-agg" else e.probability
        )
        candidates = MitigationPlanner(hardened).candidates(top_k=1)
        assert len(candidates) == 2
        assert candidates[0].component != "shared-agg"

    def test_adversarial_graph_raises_through_engine_path(self, monkeypatch):
        """The node-budget valve must also cover engine-cached compiles."""
        from repro import FaultGraph, GateType
        from repro.core.minimal_rg import CutSetExplosion

        n = 16
        g = FaultGraph("adversarial")
        lefts = [g.add_basic_event(f"a{i}", probability=0.1) for i in range(n)]
        rights = [
            g.add_basic_event(f"b{i}", probability=0.1) for i in range(n)
        ]
        branches = [
            g.add_gate(f"or{i}", GateType.OR, [lefts[i], rights[i]])
            for i in range(n)
        ]
        g.add_gate("top", GateType.AND, branches, top=True)
        # A tiny budget keeps the test fast; the default (2M nodes) is
        # the same valve, just with production headroom.  Every engine
        # cache compiles under it.
        monkeypatch.setattr("repro.engine.cache.DEFAULT_BDD_NODE_BUDGET", 500)
        engine = AuditEngine()
        with pytest.raises(CutSetExplosion):
            MitigationPlanner(g, engine=engine).plan()

    def test_bad_parameters_rejected(self, weighted_graph):
        planner = MitigationPlanner(weighted_graph)
        with pytest.raises(AnalysisError):
            planner.candidates(top_k=0)
        with pytest.raises(AnalysisError):
            planner.candidates(top_k=1, harden_factor=1.5)


class TestPlan:
    def test_ranked_best_first(self, weighted_graph):
        plan = MitigationPlanner(weighted_graph).plan(top_k=3)
        assert isinstance(plan, MitigationPlan)
        probabilities = [o.probability_after for o in plan.outcomes]
        assert probabilities == sorted(probabilities)
        assert plan.outcomes[0].mitigation.component == "shared-agg"
        assert plan.considered == 6

    def test_budget_trims(self, weighted_graph):
        plan = MitigationPlanner(weighted_graph).plan(top_k=3, budget=2)
        assert len(plan.outcomes) == 2
        assert plan.budget == 2
        full = MitigationPlanner(weighted_graph).plan(top_k=3)
        assert [o.mitigation for o in plan.outcomes] == [
            o.mitigation for o in full.outcomes[:2]
        ]

    def test_bad_budget_rejected(self, weighted_graph):
        with pytest.raises(AnalysisError, match="budget"):
            MitigationPlanner(weighted_graph).plan(budget=0)

    def test_unweighted_graph_rejected(self):
        sets = ComponentSets.from_mapping({"S1": ["a"], "S2": ["b"]})
        with pytest.raises(Exception):
            MitigationPlanner(sets.to_fault_graph())

    def test_render_text_and_dict(self, weighted_graph):
        plan = MitigationPlanner(weighted_graph).plan(top_k=2, budget=3)
        text = plan.render_text()
        assert "mitigation plan" in text
        assert "baseline" in text
        assert "1." in text
        payload = plan.to_dict()
        assert payload["considered"] == 4
        assert payload["plan"][0]["rank"] == 1
        assert payload["plan"][0]["mitigation"]["component"] == "shared-agg"
        json.dumps(payload)  # JSON-serialisable end to end

    def test_worker_invariance(self, weighted_graph):
        """The determinism contract: identical plans for any worker count."""
        serial = MitigationPlanner(weighted_graph).plan(top_k=3)
        for workers in (1, 2):
            engine = AuditEngine(n_workers=workers)
            parallel = MitigationPlanner(
                weighted_graph, engine=engine
            ).plan(top_k=3)
            assert json.dumps(parallel.to_dict()) == json.dumps(
                serial.to_dict()
            )


class TestOneExactRoute:
    def test_route_is_not_selectable_above_minimal_risk_groups(self):
        """``method=`` picked between routes that return identical
        families; the planner, what-if and ``repro.plan`` read them off
        the diagram they already hold for ``probability()``."""
        for front_door in (repro.plan, MitigationPlanner, evaluate_mitigations):
            parameters = inspect.signature(front_door).parameters
            assert "method" not in parameters
            assert "baseline_groups" not in parameters

    def test_core_has_no_door_to_the_planner(self):
        """``repro.plan`` builds the planner; ``core`` stays below
        ``analysis`` (see ``tests/test_layering.py``)."""
        assert not hasattr(SIAAuditor, "mitigation_plan")
