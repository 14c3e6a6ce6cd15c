"""Randomized structural-parity harness (ISSUE 4 satellite).

Extends the seeded-fuzzer idea of ``tests/engine/test_parity_random.py``
to the exact structural layer: for a corpus of random fault graphs
(AND / OR / k-of-n gates, shared subtrees), the BDD minimal-cut-set
extraction, the MOCUS traversal and the ``auto`` front door must return
bit-identical sorted families, every member must pass the
:func:`is_minimal_risk_group` oracle, ``Pr(T)`` from that family must equal
``Pr(T)`` from the graph's own diagram, and the mitigation planner must
emit identical plans for any worker count.

Everything derives from one master seed so a failure reproduces
exactly; bump ``GRAPH_COUNT`` locally to fuzz harder.
"""

import json
import random

import pytest

from repro import FaultGraph, GateType, minimal_risk_groups
from repro.analysis.planner import MitigationPlanner
from repro.core.bdd import BDD, compile_graph
from repro.core.minimal_rg import is_minimal_risk_group, is_risk_group
from repro.core.probability import _shannon_union, top_event_probability
from repro.engine import AuditEngine

MASTER_SEED = 0xBDD5EED
GRAPH_COUNT = 25


def random_fault_graph(rng: random.Random, index: int) -> FaultGraph:
    """A random DAG of AND/OR/k-of-n gates over 2..8 shared leaves."""
    graph = FaultGraph(f"structural-random-{index}")
    nodes = [
        graph.add_basic_event(f"L{i}")
        for i in range(rng.randint(2, 8))
    ]
    for i in range(rng.randint(1, 6)):
        fan = rng.randint(1, min(4, len(nodes)))
        children = rng.sample(nodes, fan)
        gate = rng.choice(
            [GateType.AND, GateType.OR, GateType.K_OF_N]
        )
        k = rng.randint(1, fan) if gate is GateType.K_OF_N else None
        nodes.append(graph.add_gate(f"G{i}", gate, children, k=k))
    reachable = graph.descendants(nodes[-1]) | {nodes[-1]}
    orphans = [
        name
        for name in graph.events()
        if name not in reachable and not graph.parents(name)
    ]
    if orphans:
        graph.add_gate("ROOT", GateType.OR, [nodes[-1], *orphans], top=True)
    else:
        graph.set_top(nodes[-1])
    return graph


def random_cases():
    rng = random.Random(MASTER_SEED)
    return [
        pytest.param(random_fault_graph(rng, index), id=f"graph{index}")
        for index in range(GRAPH_COUNT)
    ]


@pytest.mark.parametrize("graph", random_cases())
def test_bdd_mocus_and_auto_families_are_bit_identical(graph):
    mocus = minimal_risk_groups(graph, method="mocus")
    auto = minimal_risk_groups(graph)
    direct = compile_graph(graph).minimal_cut_sets()
    assert auto == mocus
    assert direct == mocus


@pytest.mark.parametrize("graph", random_cases())
def test_families_pass_the_minimality_oracle(graph):
    groups = minimal_risk_groups(graph)
    for group in groups:
        assert is_minimal_risk_group(graph, group)
    # Spot-check the complement: growing a group keeps it a (non-minimal)
    # risk group, so the oracle must reject the enlarged set.
    leaves = set(graph.basic_events())
    for group in groups[:5]:
        extra = sorted(leaves - group)
        if not extra:
            continue
        enlarged = set(group) | {extra[0]}
        assert is_risk_group(graph, enlarged)
        assert not is_minimal_risk_group(graph, enlarged)


@pytest.mark.parametrize("graph", random_cases())
def test_cut_set_probability_equals_the_graph_diagram(graph):
    rng = random.Random(f"{MASTER_SEED}/{graph.name}")
    probs = {leaf: rng.uniform(0.01, 0.9) for leaf in graph.basic_events()}
    groups = minimal_risk_groups(graph)
    from_graph = compile_graph(graph).probability(probs)
    assert top_event_probability(groups, probs) == pytest.approx(
        from_graph, abs=1e-12
    )
    assert _shannon_union(groups, probs) == pytest.approx(from_graph, abs=1e-12)


@pytest.mark.parametrize("graph", random_cases())
def test_fold_direction_changes_no_bit(graph, monkeypatch):
    """A reduced ordered BDD is canonical for its variable order, so
    folding a gate's children from the first operand (quadratic on wide
    gates) instead of the last yields the same diagram: equal families
    and ``==`` on the ``Pr(T)`` floats."""
    rng = random.Random(f"{MASTER_SEED}/{graph.name}")
    probs = {leaf: rng.uniform(0.01, 0.9) for leaf in graph.basic_events()}
    from_last = compile_graph(graph)

    def fold_from_first(self, op, operands):
        result = operands[0]
        for operand in operands[1:]:
            result = self.apply(op, result, operand)
        return result

    monkeypatch.setattr(BDD, "apply_many", fold_from_first)
    from_first = compile_graph(graph)
    assert from_first.size() == from_last.size()
    assert from_first.probability(probs) == from_last.probability(probs)
    assert from_first.minimal_cut_sets() == from_last.minimal_cut_sets()


@pytest.mark.parametrize("graph", random_cases()[:8])
def test_truncated_families_agree(graph):
    for order in (1, 2):
        assert minimal_risk_groups(
            graph, max_order=order
        ) == minimal_risk_groups(graph, max_order=order, method="mocus")


def test_planner_worker_invariance_on_random_graphs():
    """One plan per worker count, byte-compared via canonical JSON."""
    rng = random.Random(MASTER_SEED + 1)
    for index in range(3):
        graph = random_fault_graph(rng, 100 + index)
        weighted = graph.map_probabilities(
            lambda e: round(0.02 + rng.random() * 0.2, 4)
        )
        serial = MitigationPlanner(weighted).plan(top_k=3)
        engine = AuditEngine(n_workers=2)
        parallel = MitigationPlanner(weighted, engine=engine).plan(top_k=3)
        assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())
