"""Unit + property tests for the BDD engine."""

import gc
import sys
import types
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import ComponentSets, FaultGraph, GateType, minimal_risk_groups
from repro.acquisition import NetworkDependencyCollector
from repro.core.bdd import BDD, ONE, ZERO, compile_graph
from repro.core.minimal_rg import CutSetExplosion
from repro.core import probability
from repro.core.probability import top_event_probability, union_probability
from repro.depdb import DepDB
from repro.engine import AuditEngine
from repro.errors import AnalysisError
from repro.topology import FatTreeConfig, fat_tree
from tests.core.evaluators import (
    count_failure_states,
    inclusion_exclusion_union,
)


class TestBDDBasics:
    def test_literal_round_trip(self):
        bdd = BDD(["a", "b"])
        bdd.root = bdd.literal("a")
        assert bdd.evaluate({"a"})
        assert not bdd.evaluate({"b"})

    def test_reduction_rule(self):
        bdd = BDD(["a"])
        assert bdd.make(0, ZERO, ZERO) == ZERO  # redundant test collapses

    def test_hash_consing(self):
        bdd = BDD(["a"])
        assert bdd.literal("a") == bdd.literal("a")

    def test_apply_or(self):
        bdd = BDD(["a", "b"])
        bdd.root = bdd.apply("or", bdd.literal("a"), bdd.literal("b"))
        assert bdd.evaluate({"a"})
        assert bdd.evaluate({"b"})
        assert not bdd.evaluate(set())

    def test_apply_and(self):
        bdd = BDD(["a", "b"])
        bdd.root = bdd.apply("and", bdd.literal("a"), bdd.literal("b"))
        assert bdd.evaluate({"a", "b"})
        assert not bdd.evaluate({"a"})

    def test_at_least(self):
        bdd = BDD(["a", "b", "c"])
        ops = [bdd.literal(x) for x in "abc"]
        bdd.root = bdd.at_least(2, ops)
        assert bdd.evaluate({"a", "b"})
        assert bdd.evaluate({"a", "c"})
        assert not bdd.evaluate({"c"})

    def test_unknown_variable(self):
        with pytest.raises(AnalysisError):
            BDD(["a"]).literal("z")

    def test_unknown_operation(self):
        bdd = BDD(["a", "b"])
        with pytest.raises(AnalysisError):
            bdd.apply("xor", bdd.literal("a"), bdd.literal("b"))


class TestCompileGraph:
    def test_agrees_with_graph_evaluation(self, deep_graph):
        bdd = compile_graph(deep_graph)
        leaves = deep_graph.basic_events()
        for r in range(len(leaves) + 1):
            for failed in combinations(leaves, r):
                assert bdd.evaluate(set(failed)) == deep_graph.evaluate(
                    failed
                ), failed

    def test_probability_matches_cut_set_route(self, figure_4b):
        bdd = compile_graph(figure_4b)
        probs = {"A1": 0.1, "A2": 0.2, "A3": 0.3}
        # Exact on the shared-A2 DAG, where tree_probability refuses.
        assert bdd.probability(probs) == pytest.approx(0.224)

    def test_minimal_cut_sets_match_mocus(self, deep_graph):
        bdd = compile_graph(deep_graph)
        assert bdd.minimal_cut_sets() == minimal_risk_groups(deep_graph)

    def test_model_count_brute_force(self, deep_graph):
        bdd = compile_graph(deep_graph)
        leaves = deep_graph.basic_events()
        expected = 0
        for r in range(len(leaves) + 1):
            for failed in combinations(leaves, r):
                if deep_graph.evaluate(failed):
                    expected += 1
        assert count_failure_states(bdd) == expected

    def test_custom_ordering(self, figure_4a):
        bdd = compile_graph(figure_4a, ordering=["A3", "A2", "A1"])
        assert bdd.evaluate({"A2"})
        assert bdd.minimal_cut_sets() == minimal_risk_groups(figure_4a)

    def test_bad_ordering_rejected(self, figure_4a):
        with pytest.raises(AnalysisError, match="exactly"):
            compile_graph(figure_4a, ordering=["A1"])

    def test_missing_probability(self, figure_4a):
        bdd = compile_graph(figure_4a)
        with pytest.raises(AnalysisError, match="no failure probability"):
            bdd.probability({"A1": 0.5})

    def test_k_of_n_graph(self):
        g = FaultGraph()
        for name in "abcd":
            g.add_basic_event(name, probability=0.5)
        g.add_gate("top", GateType.K_OF_N, list("abcd"), k=3, top=True)
        bdd = compile_graph(g)
        # P(X >= 3), X ~ Binomial(4, 0.5) = (4 + 1)/16
        assert bdd.probability({n: 0.5 for n in "abcd"}) == pytest.approx(
            5 / 16
        )
        assert count_failure_states(bdd) == 5

    def test_size_reported(self, deep_graph):
        assert compile_graph(deep_graph).size() >= 1

    def test_wide_graph_needs_no_caller_side_recursion_limit(self):
        """One frame per variable: 1 102 leaves used to overflow CPython's
        default stack inside ``compile_graph`` on the default audit path."""
        wide = ComponentSets.from_mapping(
            {"A": [f"a{i}" for i in range(1100)], "B": ["b0", "b1"]}
        ).to_fault_graph("wide")
        groups = minimal_risk_groups(wide)  # auto -> bdd
        assert len(groups) == 2200
        assert groups == minimal_risk_groups(wide, method="mocus")

    def test_walks_of_a_deep_diagram(self):
        """``probability`` and ``count_failure_states`` on 1 500 levels."""
        names = [f"v{i}" for i in range(1500)]
        bdd = BDD(names)
        bdd.root = ONE
        for var in reversed(range(len(names))):
            bdd.root = bdd.make(var, ZERO, bdd.root)  # AND of every variable
        assert bdd.probability(dict.fromkeys(names, 0.999)) == pytest.approx(
            0.999**1500
        )
        assert count_failure_states(bdd) == 1

    def test_reading_walks_leave_the_recursion_limit_alone(self, monkeypatch):
        """The limit is process-global, and the service audits on worker
        threads: ``probability`` and the path enumeration are loops that
        never set it, even on a chain deeper than CPython's default."""
        names = [f"v{i}" for i in range(3000)]
        bdd = BDD(names)
        bdd.root = ONE
        for var in reversed(range(len(names))):
            bdd.root = bdd.make(var, ZERO, bdd.root)  # AND of every variable
        bdd.minimal_solutions()  # builds nodes, recursively: done first

        def refuse(limit):
            raise AssertionError(f"setrecursionlimit({limit})")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert bdd.probability(dict.fromkeys(names, 0.999)) == pytest.approx(
            0.999**3000, rel=1e-12
        )
        assert bdd.minimal_cut_sets() == [frozenset(names)]


class TestMinimalSolutions:
    """Rauzy's minimal-solutions walk behind ``minimal_cut_sets``."""

    def test_falsified_terminals(self):
        bdd = BDD(["a", "b"])
        a = bdd.literal("a")
        assert bdd.falsified(ZERO, a, {}) == ZERO   # no sets to keep
        assert bdd.falsified(a, ONE, {}) == ZERO    # true on every set
        assert bdd.falsified(a, ZERO, {}) == a      # false on every set
        assert bdd.falsified(ONE, a, {}) == ONE     # false on ∅
        assert bdd.falsified(ONE, bdd.literal("b"), {}) == ONE
        assert bdd.falsified(a, a, {}) == ZERO      # its own sets

    @staticmethod
    def family(bdd: BDD, sets: list[frozenset[str]], level: int = 0) -> int:
        """The diagram whose ONE-paths are exactly ``sets``, an antichain."""
        if level == len(bdd.variables):
            return ONE if frozenset() in sets else ZERO
        name = bdd.variables[level]
        return bdd.make(
            level,
            TestMinimalSolutions.family(
                bdd, [s for s in sets if name not in s], level + 1
            ),
            TestMinimalSolutions.family(
                bdd, [s - {name} for s in sets if name in s], level + 1
            ),
        )

    def test_falsified_keeps_the_sets_where_the_function_is_false(self):
        names = ["a", "b", "c", "d"]
        bdd = BDD(names)
        a, b, c, d = (bdd.literal(name) for name in names)
        functions = [
            a,
            bdd.apply("and", a, b),
            bdd.apply("or", b, d),
            bdd.at_least(2, [a, b, c, d]),
            bdd.apply("or", bdd.apply("and", a, c), d),
        ]
        antichains = [
            [frozenset()],
            [frozenset(pair) for pair in combinations(names, 2)],
            [frozenset(triple) for triple in combinations(names, 3)],
            [frozenset("a"), frozenset("bc"), frozenset("cd")],
            [frozenset("b"), frozenset("d"), frozenset("ac")],
        ]
        for sets in antichains:
            family = self.family(bdd, sets)
            for function in functions:
                bdd.root = function
                kept = [s for s in sets if not bdd.evaluate(s)]
                bdd.root = bdd.falsified(family, function, {})
                assert sorted(bdd.minimal_cut_sets(), key=sorted) == (
                    sorted(kept, key=sorted)
                )
                # The function's minimal solutions filtered by itself: none.
                bdd.root = function
                assert bdd.falsified(bdd.minimal_solutions(), function, {}) == (
                    ZERO
                )

    def test_minsol_of_or_is_identity(self):
        bdd = BDD(["a", "b"])
        bdd.root = bdd.apply("or", bdd.literal("a"), bdd.literal("b"))
        assert bdd.minimal_solutions() == bdd.root

    def test_minsol_strips_absorbed_paths(self, figure_4b):
        # (A1 ∨ A2) ∧ (A2 ∨ A3): the {A1,A2}/{A2,A3} paths must go.
        bdd = compile_graph(figure_4b)
        assert bdd.minimal_cut_sets() == [
            frozenset({"A2"}),
            frozenset({"A1", "A3"}),
        ]

    def test_minsol_is_cached(self, deep_graph):
        bdd = compile_graph(deep_graph)
        assert bdd.minimal_solutions() == bdd.minimal_solutions()

    def test_max_order_truncation_matches_mocus(self, deep_graph):
        bdd = compile_graph(deep_graph)
        for order in (1, 2, 3):
            assert bdd.minimal_cut_sets(max_order=order) == (
                minimal_risk_groups(deep_graph, max_order=order, method="mocus")
            )

    def test_max_groups_cap(self, deep_graph):
        bdd = compile_graph(deep_graph)
        full = bdd.minimal_cut_sets()
        assert bdd.minimal_cut_sets(max_groups=len(full)) == full
        with pytest.raises(CutSetExplosion):
            bdd.minimal_cut_sets(max_groups=len(full) - 1)


class TestNoReferenceCycles:
    """A diagram dies by refcount when the call that made it returns.

    A recursive walk is a closure that names itself; left alone, that
    cycle keeps every diagram of an audit alive until the cyclic collector
    runs, and how often it runs depends on how many objects the kernel
    allocates.  ``minimal_solutions`` is such a closure; the Pr(T) walk and
    the path enumeration are loops.  The family's Pr(T) recursion builds
    no diagram but is such a closure over its memo.  Every check runs with
    the collector off.
    """

    @pytest.fixture
    def managers(self, monkeypatch):
        refs: list[weakref.ref] = []
        init = BDD.__init__

        def recording(bdd, *args, **kwargs):
            init(bdd, *args, **kwargs)
            refs.append(weakref.ref(bdd))

        monkeypatch.setattr(BDD, "__init__", recording)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            yield refs
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def cyclic_closures() -> list[str]:
        """Functions of the BDD modules only the cyclic collector frees.

        A walk may close over the node arrays, not the manager, so a
        weakref to the manager alone misses it.
        """
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return sorted(
                garbage.__qualname__
                for garbage in gc.garbage
                if isinstance(garbage, types.FunctionType)
                and garbage.__module__
                in ("repro.core.bdd", "repro.core.probability")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    def test_analyses_leave_no_cycle(self, managers, deep_graph):
        probs = dict.fromkeys(deep_graph.basic_events(), 0.1)
        bdd = compile_graph(deep_graph)
        groups = bdd.minimal_cut_sets()
        bdd.probability(probs)
        del bdd
        top_event_probability(groups, probs)  # inclusion-exclusion
        assert len(managers) == 1
        assert [ref() for ref in managers] == [None]
        assert self.cyclic_closures() == []

    def test_exact_audit_leaves_no_cycle(self, managers):
        servers = ("srv-p0-t0-0", "srv-p2-t1-1")
        depdb = DepDB()
        NetworkDependencyCollector(
            fat_tree(FatTreeConfig(ports=4)), servers=servers
        ).adapt_into(depdb)
        repro.audit(
            depdb.dumps(),
            servers,
            engine=AuditEngine(n_workers=1),
            algorithm="minimal",
            ranking="probability",
            probability=0.1,
        )
        # The graph's diagram for the minimal RGs; Pr(T) builds none.
        assert len(managers) == 1
        assert [ref() for ref in managers] == [None]
        assert self.cyclic_closures() == []

    @pytest.mark.parametrize("budget", [None, 20_000])
    def test_pr_t_recursion_leaves_no_cycle(self, managers, monkeypatch, budget):
        """The memoised Shannon recursion, finished or tripped mid-way."""
        if budget is not None:
            monkeypatch.setattr(probability, "UNION_WORK_BUDGET", budget)
        cuts = [
            frozenset({f"a{i}", f"b{j}", f"c{(i + j) % 5}"})
            for i in range(8)
            for j in range(4)
        ]
        probs = {event: 0.2 for cut in cuts for event in cut}
        memo: dict = {}
        try:
            probability._shannon_union(
                sorted(cuts, key=lambda c: (len(c), sorted(c))), probs, memo
            )
        except CutSetExplosion:
            assert budget is not None
        else:
            assert budget is None
        assert memo
        try:
            union_probability(cuts, probs)  # the recursion, or its trip
        except CutSetExplosion:
            assert budget is not None
        assert managers == []
        assert self.cyclic_closures() == []


@st.composite
def small_graphs(draw) -> FaultGraph:
    n_leaves = draw(st.integers(2, 6))
    g = FaultGraph("prop")
    nodes = [g.add_basic_event(f"L{i}") for i in range(n_leaves)]
    for i in range(draw(st.integers(1, 4))):
        fan = draw(st.integers(1, min(3, len(nodes))))
        children = draw(
            st.lists(
                st.sampled_from(nodes), min_size=fan, max_size=fan, unique=True
            )
        )
        gate = draw(st.sampled_from([GateType.AND, GateType.OR]))
        nodes.append(g.add_gate(f"G{i}", gate, children))
    reachable = g.descendants(nodes[-1]) | {nodes[-1]}
    orphans = [n for n in g.events() if n not in reachable and not g.parents(n)]
    if orphans:
        g.add_gate("ROOT", GateType.OR, [nodes[-1], *orphans], top=True)
    else:
        g.set_top(nodes[-1])
    return g


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_bdd_equals_graph_on_all_assignments(graph):
    bdd = compile_graph(graph)
    leaves = graph.basic_events()
    for r in range(len(leaves) + 1):
        for failed in combinations(leaves, r):
            assert bdd.evaluate(set(failed)) == graph.evaluate(failed)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_bdd_cut_sets_equal_mocus(graph):
    bdd = compile_graph(graph)
    assert bdd.minimal_cut_sets() == minimal_risk_groups(graph)


@settings(max_examples=30, deadline=None)
@given(small_graphs(), st.floats(0.05, 0.95))
def test_bdd_probability_equals_inclusion_exclusion(graph, p):
    groups = minimal_risk_groups(graph)
    probs = {leaf: p for leaf in graph.basic_events()}
    bdd = compile_graph(graph)
    assert bdd.probability(probs) == pytest.approx(
        inclusion_exclusion_union(groups, probs)
    )
