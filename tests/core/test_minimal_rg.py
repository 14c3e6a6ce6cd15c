"""Unit tests for the exact minimal risk-group algorithm."""

import pytest

from repro import FaultGraph, GateType, minimal_risk_groups
from repro.core import minimal_rg
from repro.core.bdd import compile_graph
from repro.core.minimal_rg import (
    CutSetExplosion,
    is_minimal_risk_group,
    is_risk_group,
    minimise_family,
    unexpected_risk_groups,
)
from repro.errors import AnalysisError


def wide_or(width: int) -> FaultGraph:
    g = FaultGraph()
    leaves = [g.add_basic_event(f"e{i}") for i in range(width)]
    g.add_gate("top", GateType.OR, leaves, top=True)
    return g


class TestMinimiseFamily:
    def test_removes_supersets(self):
        family = [
            frozenset({"a", "b"}),
            frozenset({"a"}),
            frozenset({"a", "b", "c"}),
            frozenset({"b", "c"}),
        ]
        assert set(minimise_family(family)) == {
            frozenset({"a"}),
            frozenset({"b", "c"}),
        }

    def test_deduplicates(self):
        family = [frozenset({"x"}), frozenset({"x"})]
        assert minimise_family(family) == [frozenset({"x"})]

    def test_idempotent(self):
        family = [frozenset({"a", "b"}), frozenset({"c"})]
        once = minimise_family(family)
        assert minimise_family(once) == once

    def test_empty(self):
        assert minimise_family([]) == []

    def test_empty_set_absorbs_every_other_set(self):
        family = [frozenset({"a"}), frozenset(), frozenset({"b", "c"})]
        assert minimise_family(family) == [frozenset()]

    def test_result_is_antichain(self):
        family = [frozenset(s) for s in ("ab", "bc", "abc", "a", "cd", "d")]
        result = minimise_family(family)
        for left in result:
            for right in result:
                if left is not right:
                    assert not left <= right


class TestMinimalRiskGroups:
    def test_figure_4a(self, figure_4a):
        assert minimal_risk_groups(figure_4a) == [
            frozenset({"A2"}),
            frozenset({"A1", "A3"}),
        ]

    def test_deep_graph(self, deep_graph):
        groups = minimal_risk_groups(deep_graph)
        assert frozenset({"libc6"}) in groups
        assert frozenset({"core"}) not in groups  # core alone kills nets but
        # each server still needs its net AND... core fails both nets:
        # net1 = AND(tor1, core): core alone does NOT fail net1.
        assert frozenset({"tor1", "tor2"}) not in groups  # nets need core too
        assert frozenset({"core", "tor1", "tor2"}) in groups

    def test_single_basic_event_graph(self):
        g = FaultGraph()
        g.add_basic_event("a")
        g.set_top("a")
        assert minimal_risk_groups(g) == [frozenset({"a"})]

    def test_pure_or_chain(self):
        g = FaultGraph()
        for name in "abc":
            g.add_basic_event(name)
        g.add_gate("top", GateType.OR, list("abc"), top=True)
        assert minimal_risk_groups(g) == [
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
        ]

    def test_k_of_n_gate(self):
        g = FaultGraph()
        for name in "abc":
            g.add_basic_event(name)
        g.add_gate("top", GateType.K_OF_N, list("abc"), k=2, top=True)
        groups = minimal_risk_groups(g)
        assert groups == [
            frozenset({"a", "b"}),
            frozenset({"a", "c"}),
            frozenset({"b", "c"}),
        ]

    def test_shared_subtree_memoised_correctly(self):
        """A shared OR gate feeding two AND branches: {s} is minimal."""
        g = FaultGraph()
        g.add_basic_event("s")
        g.add_basic_event("x")
        g.add_basic_event("y")
        g.add_gate("shared", GateType.OR, ["s"])
        g.add_gate("b1", GateType.OR, ["shared", "x"])
        g.add_gate("b2", GateType.OR, ["shared", "y"])
        g.add_gate("top", GateType.AND, ["b1", "b2"], top=True)
        groups = minimal_risk_groups(g)
        assert frozenset({"s"}) in groups
        assert frozenset({"x", "y"}) in groups
        assert len(groups) == 2

    def test_results_sorted_by_size_then_members(self, figure_4a):
        groups = minimal_risk_groups(figure_4a)
        sizes = [len(g) for g in groups]
        assert sizes == sorted(sizes)

    def test_every_result_is_minimal(self, deep_graph):
        for group in minimal_risk_groups(deep_graph):
            assert is_minimal_risk_group(deep_graph, group)

    def test_max_order_truncation(self, deep_graph):
        truncated = minimal_risk_groups(deep_graph, max_order=1)
        assert truncated == [frozenset({"libc6"})]
        full = minimal_risk_groups(deep_graph)
        assert set(truncated) <= set(full)

    def test_max_groups_explosion(self, monkeypatch):
        """A 2^n product blows past a tiny cut-set family cap."""
        g = FaultGraph()
        branches = []
        for i in range(8):
            left = g.add_basic_event(f"l{i}")
            right = g.add_basic_event(f"r{i}")
            branches.append(g.add_gate(f"or{i}", GateType.OR, [left, right]))
        g.add_gate("top", GateType.AND, branches, top=True)
        # With the real cap it succeeds: 2^8 products.
        assert len(minimal_risk_groups(g)) == 256
        monkeypatch.setattr(minimal_rg, "MAX_GROUPS", 10)
        with pytest.raises(CutSetExplosion):
            minimal_risk_groups(g)

    def test_explicit_subtop(self, deep_graph):
        groups = minimal_risk_groups(deep_graph, top="S1")
        assert frozenset({"libc6"}) in groups
        assert frozenset({"tor1", "core"}) in groups


class TestMethodFrontDoor:
    def test_routes_agree(self, deep_graph):
        reference = minimal_risk_groups(deep_graph, method="mocus")
        assert minimal_risk_groups(deep_graph, method="auto") == reference

    def test_routes_agree_on_subtop(self, deep_graph):
        reference = minimal_risk_groups(deep_graph, top="S1", method="mocus")
        assert minimal_risk_groups(deep_graph, top="S1") == reference

    def test_routes_agree_on_pure_or(self):
        """``auto`` is the diagram on every graph; pure-OR ones, where
        the family-combination traversal is linear, are no exception."""
        for width in (3, 200, 1100):
            g = wide_or(width)
            reference = minimal_risk_groups(g, method="mocus")
            assert len(reference) == width
            assert minimal_risk_groups(g) == reference

    def test_wide_or_compiles_in_linear_nodes(self):
        """A gate's children fold from the last operand down: 2n-1
        decision nodes for an n-wide OR, where a fold from the first
        operand allocates n(n+1)/2 (605 550 at this width)."""
        bdd = compile_graph(wide_or(1100), max_nodes=2200)
        assert bdd.size() == 1100

    def test_unknown_method_rejected(self, figure_4a):
        with pytest.raises(AnalysisError, match="method"):
            minimal_risk_groups(figure_4a, method="magic")

    def test_bdd_route_honours_max_order(self, deep_graph):
        reference = minimal_risk_groups(
            deep_graph, max_order=2, method="mocus"
        )
        assert minimal_risk_groups(deep_graph, max_order=2) == reference

    def test_bdd_route_honours_max_groups(self, monkeypatch):
        g = FaultGraph()
        branches = []
        for i in range(8):
            left = g.add_basic_event(f"l{i}")
            right = g.add_basic_event(f"r{i}")
            branches.append(g.add_gate(f"or{i}", GateType.OR, [left, right]))
        g.add_gate("top", GateType.AND, branches, top=True)
        monkeypatch.setattr(minimal_rg, "MAX_GROUPS", 10)
        with pytest.raises(CutSetExplosion):
            minimal_risk_groups(g)

    def test_adversarial_ordering_raises_not_hangs(self, monkeypatch):
        """AND of ORs with all left leaves declared before all right
        leaves: the default topological leaf ordering interleaves
        nothing, so the diagram itself is exponential.  The safety
        valve must bound compilation, not just the enumerated family."""
        n = 24
        g = FaultGraph()
        lefts = [g.add_basic_event(f"a{i}") for i in range(n)]
        rights = [g.add_basic_event(f"b{i}") for i in range(n)]
        branches = [
            g.add_gate(f"or{i}", GateType.OR, [lefts[i], rights[i]])
            for i in range(n)
        ]
        g.add_gate("top", GateType.AND, branches, top=True)
        monkeypatch.setattr(minimal_rg, "MAX_GROUPS", 1000)
        with pytest.raises(CutSetExplosion):
            minimal_risk_groups(g)  # default auto -> bdd
        with pytest.raises(CutSetExplosion):
            minimal_risk_groups(g, method="mocus")


class TestKOfNExplosionGuard:
    """Regression: the K_OF_N branch must respect ``MAX_GROUPS`` *during*
    accumulation — before the fix a hostile k-of-n graph ran the full
    exponential product sweep before the cap was ever consulted."""

    @staticmethod
    def hostile_graph(branches: int = 16, fanout: int = 2) -> FaultGraph:
        """k-of-n over OR gates: C(n,k) subsets, fanout^k products each."""
        g = FaultGraph()
        ors = []
        for i in range(branches):
            leaves = [
                g.add_basic_event(f"b{i}-{j}") for j in range(fanout)
            ]
            ors.append(g.add_gate(f"or{i}", GateType.OR, leaves))
        g.add_gate("top", GateType.K_OF_N, ors, k=branches // 2, top=True)
        return g

    def test_hostile_k_of_n_raises_not_hangs(self, monkeypatch):
        g = self.hostile_graph()
        # 12870 subsets x 2^8 products = ~3.3M raw sets; the cap must
        # trip inside the very first subset's accumulation.
        monkeypatch.setattr(minimal_rg, "MAX_GROUPS", 50)
        with pytest.raises(CutSetExplosion):
            minimal_risk_groups(g, method="mocus")

    def test_product_cap_trips_inside_and_accumulation(self, monkeypatch):
        g = FaultGraph()
        branches = []
        for i in range(10):
            left = g.add_basic_event(f"l{i}")
            right = g.add_basic_event(f"r{i}")
            branches.append(g.add_gate(f"or{i}", GateType.OR, [left, right]))
        g.add_gate("top", GateType.AND, branches, top=True)
        monkeypatch.setattr(minimal_rg, "MAX_GROUPS", 100)
        with pytest.raises(CutSetExplosion, match="exceeded|product"):
            minimal_risk_groups(g, method="mocus")

    def test_roomy_cap_still_succeeds(self, monkeypatch):
        g = self.hostile_graph(branches=4, fanout=2)
        reference = minimal_risk_groups(g)
        monkeypatch.setattr(minimal_rg, "MAX_GROUPS", 10_000)
        groups = minimal_risk_groups(g, method="mocus")
        assert groups == reference
        assert all(is_minimal_risk_group(g, rg) for rg in groups)


class TestPredicates:
    def test_is_risk_group(self, figure_4a):
        assert is_risk_group(figure_4a, {"A2"})
        assert is_risk_group(figure_4a, {"A1", "A2", "A3"})
        assert not is_risk_group(figure_4a, {"A1"})

    def test_is_minimal_risk_group(self, figure_4a):
        assert is_minimal_risk_group(figure_4a, {"A2"})
        assert is_minimal_risk_group(figure_4a, {"A1", "A3"})
        assert not is_minimal_risk_group(figure_4a, {"A1", "A2"})
        assert not is_minimal_risk_group(figure_4a, {"A1"})


class TestUnexpectedRiskGroups:
    def test_filters_smaller_than_redundancy(self):
        groups = [frozenset({"x"}), frozenset({"a", "b"})]
        assert unexpected_risk_groups(groups, expected_size=2) == [
            frozenset({"x"})
        ]

    def test_none_when_all_big_enough(self):
        groups = [frozenset({"a", "b"})]
        assert unexpected_risk_groups(groups, expected_size=2) == []

    def test_invalid_expected_size(self):
        with pytest.raises(AnalysisError):
            unexpected_risk_groups([], expected_size=0)
