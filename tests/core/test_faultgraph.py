"""Unit tests for the FaultGraph structure."""

import networkx as nx
import pytest

from repro import FaultGraph, GateType
from repro.errors import FaultGraphError
from tests.analysis.mitigated import relabel
from tests.graph_export import fault_graph_to_networkx


def tiny() -> FaultGraph:
    g = FaultGraph("tiny")
    g.add_basic_event("a", probability=0.1)
    g.add_basic_event("b")
    g.add_gate("or", GateType.OR, ["a", "b"])
    g.add_basic_event("c")
    g.add_gate("top", GateType.AND, ["or", "c"], top=True)
    return g


class TestConstruction:
    def test_duplicate_basic_event_rejected(self):
        g = FaultGraph()
        g.add_basic_event("a")
        with pytest.raises(FaultGraphError):
            g.add_basic_event("a")

    def test_exist_ok_returns_existing(self):
        g = FaultGraph()
        g.add_basic_event("a", probability=0.2)
        assert g.add_basic_event("a", exist_ok=True) == "a"
        assert g.probability_of("a") == 0.2

    def test_exist_ok_does_not_shadow_gates(self):
        g = FaultGraph()
        g.add_basic_event("a")
        g.add_gate("g", GateType.OR, ["a"])
        with pytest.raises(FaultGraphError):
            g.add_basic_event("g", exist_ok=True)

    def test_gate_needs_children(self):
        g = FaultGraph()
        with pytest.raises(FaultGraphError):
            g.add_gate("g", GateType.OR, [])

    def test_gate_rejects_unknown_children(self):
        g = FaultGraph()
        with pytest.raises(FaultGraphError, match="unknown child"):
            g.add_gate("g", GateType.OR, ["missing"])

    def test_gate_rejects_duplicate_children(self):
        g = FaultGraph()
        g.add_basic_event("a")
        with pytest.raises(FaultGraphError, match="duplicate children"):
            g.add_gate("g", GateType.OR, ["a", "a"])

    def test_k_of_n_threshold_validated_on_add(self):
        g = FaultGraph()
        g.add_basic_event("a")
        g.add_basic_event("b")
        with pytest.raises(FaultGraphError):
            g.add_gate("g", GateType.K_OF_N, ["a", "b"], k=3)

    def test_redundancy_gate_collapses_to_and_or(self):
        g = FaultGraph()
        for name in "abc":
            g.add_basic_event(name)
        and_gate = g.add_redundancy_gate("r1", ["a", "b"], required=1)
        assert g.event(and_gate).gate is GateType.AND
        or_gate = g.add_redundancy_gate("r2", ["a", "c"], required=2)
        assert g.event(or_gate).gate is GateType.OR

    def test_redundancy_gate_k_of_n(self):
        g = FaultGraph()
        for name in "abcde":
            g.add_basic_event(name)
        gate = g.add_redundancy_gate("r", list("abcde"), required=3)
        assert g.event(gate).gate is GateType.K_OF_N
        assert g.threshold(gate) == 3  # 5 - 3 + 1

    @pytest.mark.parametrize("child", ["later", "g"])
    def test_child_must_exist_before_its_gate(self, child):
        """Why ``add_gate`` cannot close a cycle: every child predates the
        gate, and the gate itself does not exist yet."""
        g = FaultGraph()
        g.add_basic_event("a")
        with pytest.raises(FaultGraphError, match="unknown child"):
            g.add_gate("g", GateType.OR, ["a", child])
        assert "g" not in g
        assert g.parents("a") == ()

    def test_cycle_rejected(self):
        g = FaultGraph()
        g.add_basic_event("a")
        g.add_gate("g1", GateType.OR, ["a"])
        g.add_gate("g2", GateType.OR, ["g1"])
        # There is no public way to create a cycle; child checks prevent
        # it.  Exercise the internal guard directly.
        g._children["g1"] = ("g2",)
        g._parents["g2"].append("g1")
        g._parents["a"].remove("g1")
        g._topo_cache = None
        with pytest.raises(FaultGraphError, match="cycle"):
            g.topological_order()


class TestInspection:
    def test_top_requires_designation(self):
        g = FaultGraph("untopped")
        g.add_basic_event("a")
        with pytest.raises(FaultGraphError, match="no top"):
            _ = g.top

    def test_contains_len_iter(self):
        g = tiny()
        assert "a" in g and "missing" not in g
        assert len(g) == 5
        assert set(iter(g)) == {"a", "b", "c", "or", "top"}

    def test_children_parents(self):
        g = tiny()
        assert g.children("or") == ("a", "b")
        assert g.parents("a") == ("or",)
        assert g.parents("top") == ()

    def test_basic_events(self):
        g = tiny()
        assert g.basic_events() == ["a", "b", "c"]

    def test_probabilities_requires_full_weights(self):
        g = tiny()
        with pytest.raises(FaultGraphError, match="lack probabilities"):
            g.probabilities()
        g.set_probability("b", 0.2)
        g.set_probability("c", 0.3)
        assert g.probabilities() == {"a": 0.1, "b": 0.2, "c": 0.3}

    def test_set_probability_clears(self):
        g = tiny()
        g.set_probability("a", None)
        assert g.probability_of("a") is None

    def test_unknown_event_raises(self):
        with pytest.raises(FaultGraphError):
            tiny().event("nope")

    def test_basic_events_under(self):
        g = tiny()
        assert g.basic_events_under("or") == {"a", "b"}
        assert g.basic_events_under("top") == {"a", "b", "c"}
        assert g.basic_events_under("a") == {"a"}


class TestValidation:
    def test_valid_graph_passes(self):
        tiny().validate()

    def test_orphan_detected(self):
        g = tiny()
        g.add_basic_event("orphan")
        with pytest.raises(FaultGraphError, match="unreachable"):
            g.validate()

    def test_topological_order_children_first(self):
        g = tiny()
        order = g.topological_order()
        assert order.index("a") < order.index("or")
        assert order.index("or") < order.index("top")
        assert order.index("c") < order.index("top")


class TestEvaluation:
    def test_or_gate_propagates_any(self):
        g = tiny()
        values = g.evaluate_all(["a"])
        assert values["or"] and not values["top"]

    def test_and_gate_needs_all(self):
        g = tiny()
        assert not g.evaluate(["a", "b"])
        assert g.evaluate(["a", "c"])
        assert g.evaluate(["b", "c"])

    def test_empty_assignment(self):
        assert not tiny().evaluate([])

    def test_unknown_event_in_assignment(self):
        with pytest.raises(FaultGraphError, match="unknown events"):
            tiny().evaluate(["zzz"])

    def test_k_of_n_evaluation(self):
        g = FaultGraph()
        for name in "abc":
            g.add_basic_event(name)
        g.add_gate("top", GateType.K_OF_N, list("abc"), k=2, top=True)
        assert not g.evaluate(["a"])
        assert g.evaluate(["a", "c"])
        assert g.evaluate(["a", "b", "c"])


class TestTransforms:
    def test_copy_is_deep(self):
        g = tiny()
        clone = g.copy()
        clone.set_probability("a", 0.9)
        assert g.probability_of("a") == 0.1
        assert clone.top == "top"
        assert clone.stats() == g.stats()

    def test_relabel(self):
        g = tiny()
        clone = relabel(g, {"a": "alpha", "top": "root"})
        assert "alpha" in clone and "a" not in clone
        assert clone.top == "root"
        assert clone.evaluate(["alpha", "c"])

    def test_relabel_collision_rejected(self):
        g = tiny()
        with pytest.raises(FaultGraphError, match="collapses"):
            relabel(g, {"a": "b"})

    def test_subgraph(self):
        g = tiny()
        sub = g.subgraph("or")
        assert set(sub.events()) == {"a", "b", "or"}
        assert sub.top == "or"
        assert sub.evaluate(["b"])

    def test_map_probabilities(self):
        g = tiny()
        weighted = g.map_probabilities(lambda e: 0.5)
        assert weighted.probabilities() == {"a": 0.5, "b": 0.5, "c": 0.5}
        # original untouched
        assert g.probability_of("b") is None


class TestInterop:
    def test_to_networkx(self):
        g = tiny()
        nxg = fault_graph_to_networkx(g)
        assert isinstance(nxg, nx.DiGraph)
        assert nxg.number_of_nodes() == 5
        assert nxg.has_edge("top", "or")
        assert nxg.nodes["or"]["gate"] == "or"
        assert nxg.nodes["a"]["probability"] == 0.1

    def test_stats(self):
        stats = tiny().stats()
        assert stats == {"events": 5, "basic_events": 3, "gates": 2, "edges": 4}
