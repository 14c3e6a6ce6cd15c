"""Ablations for the design choices DESIGN.md calls out.

1. Early absorption inside AND-gate products vs product-then-minimise.
2. Vectorised batch sampling vs a naive per-round Python loop.
3. Witness extraction + greedy minimisation vs raw failing-set
   aggregation (the literal paper algorithm) — detection quality.
4. MinHash signature size m vs estimation error (Broder's O(1/sqrt m)).
5. Top-event probability engines: BDD (exact) vs inclusion-exclusion
   (exact, exponential in #cuts) vs Monte-Carlo (approximate).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import (
    ComponentSets,
    FaultGraph,
    GateType,
    minimal_risk_groups,
)
from repro.core.minimal_rg import minimise_family
from repro.core.probability import expected_error_minhash
from repro.crypto import HashFamily
from repro.engine import AuditEngine
from repro.privacy import estimate_jaccard, jaccard, minhash_signature


def _branchy_graph(branches: int) -> FaultGraph:
    """AND over `branches` ORs of 3 leaves: 3^branches raw cut products."""
    g = FaultGraph("ablation")
    gates = []
    for b in range(branches):
        leaves = [g.add_basic_event(f"l{b}-{i}") for i in range(3)]
        # One shared leaf per pair of branches creates absorption wins.
        if b:
            leaves.append(f"l{b - 1}-0")
        gates.append(g.add_gate(f"or{b}", GateType.OR, leaves))
    g.add_gate("top", GateType.AND, gates, top=True)
    return g


def _naive_minimal_rgs(graph: FaultGraph) -> list[frozenset[str]]:
    """MOCUS without intermediate absorption (minimise only at the end)."""
    families: dict[str, list[frozenset[str]]] = {}
    for name in graph.topological_order():
        event = graph.event(name)
        if event.is_basic:
            families[name] = [frozenset((name,))]
            continue
        kids = graph.children(name)
        if event.gate is GateType.OR:
            merged: list[frozenset[str]] = []
            for child in kids:
                merged.extend(families[child])
            families[name] = merged
        else:  # AND (this ablation graph has no k-of-n)
            family = [frozenset()]
            for child in kids:
                family = [a | b for a in family for b in families[child]]
            families[name] = family
    return minimise_family(families[graph.top])


def test_ablation_early_absorption(benchmark, emit):
    graph = _branchy_graph(7)
    started = time.perf_counter()
    fast = minimal_risk_groups(graph)
    fast_seconds = time.perf_counter() - started
    started = time.perf_counter()
    naive = _naive_minimal_rgs(graph)
    naive_seconds = time.perf_counter() - started
    assert set(fast) == set(naive)  # same answer
    emit.table(
        "Ablation 1 — absorption during AND products",
        ["variant", "seconds", "minimal RGs"],
        [
            ["early absorption (library)", f"{fast_seconds:.4f}", len(fast)],
            ["product-then-minimise", f"{naive_seconds:.4f}", len(naive)],
        ],
    )
    assert fast_seconds < naive_seconds
    benchmark.pedantic(
        minimal_risk_groups, args=(graph,), rounds=3, iterations=1
    )


def test_ablation_vectorised_sampling(benchmark, emit):
    from repro.core.compile import CompiledGraph

    sets = ComponentSets.from_mapping(
        {f"S{i}": [f"c{i}-{j}" for j in range(30)] + ["shared"]
         for i in range(3)}
    )
    graph = sets.to_fault_graph()
    compiled = CompiledGraph(graph)
    rounds = 5_000
    rng = np.random.default_rng(0)
    failures = rng.random((rounds, compiled.n_basic)) < 0.5

    started = time.perf_counter()
    compiled.evaluate_batch(failures)
    vector_seconds = time.perf_counter() - started

    leaves = compiled.basic_names
    started = time.perf_counter()
    for row in range(rounds):
        failed = [leaves[i] for i in np.flatnonzero(failures[row])]
        graph.evaluate(failed)
    scalar_seconds = time.perf_counter() - started

    emit.table(
        "Ablation 2 — vectorised batch evaluation (5k rounds)",
        ["variant", "seconds", "rounds/s"],
        [
            ["NumPy batches (library)", f"{vector_seconds:.3f}",
             f"{rounds / vector_seconds:,.0f}"],
            ["per-round Python loop", f"{scalar_seconds:.3f}",
             f"{rounds / scalar_seconds:,.0f}"],
        ],
    )
    assert vector_seconds < scalar_seconds
    benchmark.pedantic(
        lambda: compiled.evaluate_batch(failures), rounds=3, iterations=1
    )


def test_ablation_witness_minimisation(benchmark, emit):
    sets = ComponentSets.from_mapping(
        {f"S{i}": [f"c{i}-{j}" for j in range(8)] + ["shared"]
         for i in range(2)}
    )
    graph = sets.to_fault_graph()
    reference = minimal_risk_groups(graph)
    rounds = 4_000
    engine = AuditEngine(n_workers=1)
    refined = engine.sample(graph, rounds, seed=1, minimise=True)
    raw = engine.sample(graph, rounds, seed=1, minimise=False)
    emit.table(
        "Ablation 3 — witness extraction + greedy minimisation",
        ["variant", "% minimal RGs detected", "risk groups reported"],
        [
            ["minimised (library default)",
             f"{refined.detection_rate(reference):.1%}",
             len(refined.risk_groups)],
            ["raw failing sets (paper's literal sketch)",
             f"{raw.detection_rate(reference):.1%}",
             len(raw.risk_groups)],
        ],
    )
    assert refined.detection_rate(reference) > raw.detection_rate(reference)
    benchmark.pedantic(
        lambda: AuditEngine(n_workers=1).sample(
            graph, rounds, seed=1, minimise=True
        ),
        rounds=1,
        iterations=1,
    )


def test_ablation_probability_engines(benchmark, emit):
    from repro.core.bdd import compile_graph
    from tests.core.evaluators import (
        inclusion_exclusion_union,
        per_cut_monte_carlo_union,
    )

    # A deployment graph with shared components and ~18 minimal cuts:
    # inclusion-exclusion still works but already strains (2^18 terms).
    sets = ComponentSets.from_mapping(
        {
            f"S{i}": [f"u{i}-{j}" for j in range(4)] + ["shared-a", "shared-b"]
            for i in range(2)
        }
    )
    graph = sets.to_fault_graph().map_probabilities(lambda e: 0.05)
    probs = graph.probabilities()
    groups = minimal_risk_groups(graph)

    started = time.perf_counter()
    bdd = compile_graph(graph)
    bdd_value = bdd.probability(probs)
    bdd_seconds = time.perf_counter() - started

    started = time.perf_counter()
    ie_value = inclusion_exclusion_union(groups, probs)
    ie_seconds = time.perf_counter() - started

    started = time.perf_counter()
    mc_value = per_cut_monte_carlo_union(groups, probs, 200_000, 0)
    mc_seconds = time.perf_counter() - started

    emit.table(
        f"Ablation 5 — Pr(top) engines ({len(groups)} minimal cuts)",
        ["engine", "Pr(top)", "seconds", "exact?"],
        [
            ["BDD", f"{bdd_value:.6f}", f"{bdd_seconds:.4f}", "yes"],
            ["inclusion-exclusion", f"{ie_value:.6f}", f"{ie_seconds:.4f}",
             "yes"],
            ["Monte-Carlo (2e5)", f"{mc_value:.6f}", f"{mc_seconds:.4f}",
             "no"],
        ],
    )
    assert bdd_value == pytest.approx(ie_value, abs=1e-12)
    assert mc_value == pytest.approx(ie_value, abs=0.01)
    assert bdd_seconds < ie_seconds  # BDD sidesteps the 2^n terms
    benchmark.pedantic(
        lambda: compile_graph(graph).probability(probs),
        rounds=3,
        iterations=1,
    )


def test_ablation_minhash_size(benchmark, emit):
    shared = [f"s{i}" for i in range(120)]
    left = set(shared + [f"l{i}" for i in range(80)])
    right = set(shared + [f"r{i}" for i in range(80)])
    truth = jaccard([left, right])
    rows = []
    errors = {}
    for m in (64, 128, 256, 512, 1024):
        family = HashFamily(size=m, seed=3)
        estimate = estimate_jaccard(
            [minhash_signature(left, family), minhash_signature(right, family)]
        )
        errors[m] = abs(estimate - truth)
        rows.append(
            [
                m,
                f"{estimate:.4f}",
                f"{errors[m]:.4f}",
                f"{expected_error_minhash(m):.4f}",
            ]
        )
    emit.table(
        f"Ablation 4 — MinHash signature size (true J = {truth:.4f})",
        ["m", "estimate", "|error|", "Broder bound O(1/sqrt m)"],
        rows,
    )
    for m, error in errors.items():
        assert error <= 3.5 * expected_error_minhash(m)
    family = HashFamily(size=256, seed=3)
    benchmark.pedantic(
        lambda: minhash_signature(left, family), rounds=3, iterations=1
    )
