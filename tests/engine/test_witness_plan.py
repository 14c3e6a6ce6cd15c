"""The witness plan and the kernel's memory bound (ISSUE 21).

``CompiledGraph.witness_plan`` cuts ``reversed(gate_order)`` into runs of
like gates so witness extraction can resolve a run in one array pass;
the kernel takes a run a slice at a time so a block's peak memory does
not depend on how long its runs are.  Bit-for-bit parity with the
per-gate loop is ``test_witness_kernel.py``'s job; this file checks the
plan's three laws and the bound.
"""

from __future__ import annotations

import itertools
import pickle
import tracemalloc

import numpy as np
from hypothesis import given, settings

from repro.core.compile import CompiledGraph
from repro.core.events import GateType
from repro.core.faultgraph import FaultGraph
from repro.engine import batch
from repro.engine.batch import extract_witnesses_batch

from tests.core.test_property_core import fault_graphs
from tests.engine.test_witness_kernel import RANDOM_SEEDS, random_graph


def assert_plan_laws(compiled: CompiledGraph) -> int:
    """Check the three laws; returns how many runs the child rule cut."""
    plan = compiled.witness_plan
    walked = [int(g) for _k, gates, _kids in plan for g in gates]
    assert walked == list(reversed(compiled.gate_order))  # order kept
    cuts = 0
    for position, (k, gates, children) in enumerate(plan):
        assert gates.ndim == 1 and children.ndim == 2
        assert len(children) == len(gates)
        for gate, kids in zip(gates.tolist(), children.tolist()):
            # One (arity, threshold) per run, straight from the graph.
            assert kids == compiled._children_py[gate]
            assert k == compiled._thresholds_py[gate]
        # No gate of a run is a child of another gate of it.
        assert not set(gates.tolist()) & set(children.ravel().tolist())
        if position:
            # Maximal: a new run starts only on a new shape or a child.
            before_k, _gates, before_children = plan[position - 1]
            same_shape = (before_k, before_children.shape[1]) == (
                k, children.shape[1]
            )
            is_child = int(gates[0]) in set(before_children.ravel().tolist())
            assert not same_shape or is_child
            cuts += same_shape
    return cuts


@settings(max_examples=150, deadline=None)
@given(fault_graphs())
def test_plan_laws_on_random_dags(graph):
    assert_plan_laws(CompiledGraph(graph))


def test_plan_laws_on_the_kernel_pin_graphs():
    cuts = sum(
        assert_plan_laws(CompiledGraph(random_graph(seed)))
        for seed in RANDOM_SEEDS
    )
    # The pin is only sharp if like gates feeding like gates occur in it.
    assert cuts > 10


def test_a_chain_of_like_gates_is_never_merged():
    g = FaultGraph("chain")
    for i in range(5):
        g.add_basic_event(f"L{i}")
    g.add_gate("g0", GateType.OR, ["L0", "L1"])
    g.add_gate("g1", GateType.OR, ["g0", "L2"])
    g.add_gate("g2", GateType.OR, ["g1", "L3"])
    g.add_gate("top", GateType.OR, ["g2", "L4"], top=True)
    compiled = CompiledGraph(g)
    assert [len(gates) for _k, gates, _kids in compiled.witness_plan] == [1] * 4
    assert_plan_laws(compiled)


def test_plan_is_lazy_built_once_and_survives_pickling(deep_graph):
    compiled = CompiledGraph(deep_graph)
    assert compiled._witness_plan is None  # compile alone builds nothing
    plan = compiled.witness_plan
    assert compiled.witness_plan is plan
    for clone in (
        pickle.loads(pickle.dumps(CompiledGraph(deep_graph))),
        pickle.loads(pickle.dumps(compiled)),
    ):
        assert_plan_laws(clone)
        assert len(clone.witness_plan) == len(plan)


# --------------------------------------------------------------------- #
# The slice budget
# --------------------------------------------------------------------- #

ROWS = 2048


def wide_or_graph(n_gates: int) -> FaultGraph:
    """``n_gates`` OR-of-3 gates, each over its own triple of 16 shared
    leaves, under a two-level AND (32 per group): every gate is needed in
    every row, all of them are one run, and the block's own matrices —
    and any one AND's children — stay small beside the run's scratch."""
    g = FaultGraph(f"wide-{n_gates}")
    leaves = [g.add_basic_event(f"L{i}") for i in range(16)]
    triples = itertools.islice(itertools.combinations(leaves, 3), n_gates)
    gates = [
        g.add_gate(f"G{i}", GateType.OR, triple)
        for i, triple in enumerate(triples)
    ]
    assert len(gates) == n_gates
    groups = [
        g.add_gate(f"A{i}", GateType.AND, gates[i:i + 32])
        for i in range(0, n_gates, 32)
    ]
    g.add_gate("top", GateType.AND, groups, top=True)
    return g


def kernel_peak_bytes(n_gates: int) -> int:
    """tracemalloc peak of one extraction, less its demand matrix."""
    compiled = CompiledGraph(wide_or_graph(n_gates))
    assert [len(gates) for _k, gates, _kids in compiled.witness_plan] == [
        1, n_gates // 32, n_gates
    ]
    node_major = np.ones((compiled.n_nodes, ROWS), dtype=bool)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        witnesses = extract_witnesses_batch(compiled, node_major.T, rng)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert compiled.evaluate_batch(witnesses).all()
    # The (n_nodes, m) demand matrix is the block's own size, not the
    # run's scratch: leave it out of the bound.
    return peak - compiled.n_nodes * ROWS


def test_peak_memory_is_bounded_by_the_slice_not_the_run():
    """A 256-gate x 2 048-row run holds 1.5 M (row, child) cells — 12 MB
    of scores alone if drawn at once, 52 MB of scratch all told.  Sliced,
    the scratch stays under 64 bytes per budgeted cell (measured 36:
    scores 8, flat indices 8, the per-row index vectors and the gathers
    the rest) and does not grow when the run doubles."""
    bound = 64 * batch._SLICE_CELLS
    assert 256 * ROWS * 3 > 8 * batch._SLICE_CELLS  # the run needs slicing
    peak_256 = kernel_peak_bytes(256)
    peak_512 = kernel_peak_bytes(512)
    assert peak_256 < bound
    assert peak_512 < bound
    assert peak_512 < peak_256 * 1.25
