"""Structural hashing and the compiled-graph cache."""

import threading

from repro import ComponentSets, FaultGraph, GateType
from repro.engine import GraphCache, compile_cached, structural_hash
from repro.core.compile import CompiledGraph
from repro.engine.cache import MAX_CACHED_GRAPHS


def small_graph(shared: str = "sh") -> FaultGraph:
    sets = ComponentSets.from_mapping(
        {"S1": ["a", "b", shared], "S2": ["c", "d", shared]}
    )
    return sets.to_fault_graph("demo")


class TestStructuralHash:
    def test_identical_structures_share_a_hash(self):
        assert structural_hash(small_graph()) == structural_hash(small_graph())

    def test_display_name_does_not_matter(self):
        sets = ComponentSets.from_mapping({"S1": ["a", "b"], "S2": ["c"]})
        assert structural_hash(sets.to_fault_graph("x")) == structural_hash(
            sets.to_fault_graph("y")
        )

    def test_copies_share_a_hash(self, deep_graph):
        assert structural_hash(deep_graph) == structural_hash(deep_graph.copy())

    def test_different_wiring_changes_hash(self):
        assert structural_hash(small_graph("sh")) != structural_hash(
            small_graph("other")
        )

    def test_probability_changes_hash(self, figure_4b):
        clone = figure_4b.copy()
        clone.set_probability("A1", 0.5)
        assert structural_hash(figure_4b) != structural_hash(clone)

    def test_gate_type_changes_hash(self):
        def build(gate: GateType) -> FaultGraph:
            g = FaultGraph("g")
            g.add_basic_event("x")
            g.add_basic_event("y")
            g.add_gate("top", gate, ["x", "y"], top=True)
            return g

        assert structural_hash(build(GateType.AND)) != structural_hash(
            build(GateType.OR)
        )

    def test_mutation_after_hashing_yields_new_hash(self, deep_graph):
        before = structural_hash(deep_graph)
        deep_graph.add_basic_event("extra")
        deep_graph.add_gate("top2", GateType.OR, ["top", "extra"], top=True)
        assert structural_hash(deep_graph) != before


class TestGraphCache:
    def test_hit_on_structurally_equal_graph(self):
        cache = GraphCache()
        first = cache.compile(small_graph())
        second = cache.compile(small_graph())
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_one_entry_per_structure(self, figure_4b):
        """Keyed by the structural hash alone: a copy is a hit, a
        reweighted copy a second entry."""
        cache = GraphCache()
        compiled = cache.compile(figure_4b)
        assert cache.compile(figure_4b.copy()) is compiled
        reweighted = figure_4b.map_probabilities(lambda e: 0.5)
        assert cache.compile(reweighted) is not compiled
        assert len(cache) == 2
        assert cache.hits == 1 and cache.misses == 2

    def test_racing_misses_keep_the_first_artefact(self, monkeypatch):
        # Both threads miss before either stores: each compiles, and both
        # come away with the one artefact stored first.
        both_missed = threading.Barrier(2, timeout=10)

        def compile_after_both_missed(graph):
            both_missed.wait()
            return CompiledGraph(graph)

        monkeypatch.setattr(
            "repro.engine.cache.CompiledGraph", compile_after_both_missed
        )
        cache = GraphCache()
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.compile(small_graph()))
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.misses == 2 and len(cache) == 1
        assert results[0] is results[1]

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.engine.cache.MAX_CACHED_GRAPHS", 2)
        cache = GraphCache()
        graphs = [small_graph(f"s{i}") for i in range(3)]
        for g in graphs:
            cache.compile(g)
        assert len(cache) == 2
        # graphs[0] was evicted; recompiling it is a miss.
        cache.compile(graphs[0])
        assert cache.misses == 4

    def test_info(self):
        cache = GraphCache()
        cache.compile(small_graph())
        cache.compile(small_graph())
        assert cache.info() == {
            "entries": 1,
            "maxsize": MAX_CACHED_GRAPHS,
            "hits": 1,
            "misses": 1,
        }

    def test_default_cache_reuses_compilations(self):
        first = compile_cached(small_graph("zq-unique"))
        second = compile_cached(small_graph("zq-unique"))
        assert first is second
