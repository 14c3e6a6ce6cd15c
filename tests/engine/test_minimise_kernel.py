"""Cone-restricted bitset minimisation (ISSUE 13 tentpole).

``minimise_cuts_batch`` keeps one row bitset per node, evaluates the
graph once, and per candidate event re-evaluates only that event's
ancestor cone.  It must stay *bit-identical* to the loop it replaced —
same matrix, same dtype/shape, same generator state afterwards — so that
loop is kept here, verbatim, as the oracle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compile import CompiledGraph, _threshold_bits
from repro.core.events import GateType
from repro.core.faultgraph import FaultGraph
from repro.engine.batch import minimise_cuts_batch
from repro.engine.cache import GraphCache
from repro.errors import FaultGraphError

from tests.core.test_property_core import fault_graphs


def minimise_cuts_boolean(compiled, cuts, rng):
    """The pre-ISSUE-13 body: one whole-graph boolean evaluation of the
    trial rows per candidate event."""
    current = np.array(cuts, dtype=bool)
    sizes = current.sum(axis=1)
    candidates = np.flatnonzero(current.any(axis=0))
    order = rng.permutation(candidates)
    for position in order:
        rows = np.flatnonzero(current[:, position] & (sizes > 1))
        if rows.size == 0:
            continue
        trial = current[rows]
        trial[:, position] = False
        still_failing = compiled.evaluate_batch(trial)
        dropped = rows[still_failing]
        current[dropped, position] = False
        sizes[dropped] -= 1
    return current


def failing_rows(compiled, m, rng):
    """``m`` risk-group rows: random failing assignments, topped up with
    duplicates and single-event rows where the graph has them."""
    pool = rng.random((max(4 * m, 64), compiled.n_basic)) < 0.6
    singles = np.eye(compiled.n_basic, dtype=bool)
    pool = np.concatenate(
        [pool, singles, np.ones((1, compiled.n_basic), dtype=bool)]
    )
    pool = pool[compiled.evaluate_batch(pool)]
    picks = rng.integers(0, len(pool), size=m)  # with replacement: dupes
    return pool[picks]


def layered_graph() -> FaultGraph:
    """Eight leaves under OR pairs, a 2-of-4 layer and an AND top, plus
    one leaf wired straight into the top — cones of different sizes."""
    g = FaultGraph("layered")
    for i in range(8):
        g.add_basic_event(f"L{i}")
    g.add_basic_event("direct")
    for i in range(4):
        g.add_gate(f"or{i}", GateType.OR, [f"L{2 * i}", f"L{2 * i + 1}"])
    g.add_gate("vote", GateType.K_OF_N, [f"or{i}" for i in range(4)], k=2)
    g.add_gate("side", GateType.AND, ["or0", "L7"])
    g.add_gate("mid", GateType.OR, ["vote", "side"])
    g.add_gate("top", GateType.AND, ["mid", "direct"], top=True)
    return g


def count_gate_evaluations(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = CompiledGraph.evaluate_gate_bits

    def counting(self, gate, bits):
        calls.append(gate)
        return real(self, gate, bits)

    monkeypatch.setattr(CompiledGraph, "evaluate_gate_bits", counting)
    return calls


# --------------------------------------------------------------------- #
# Parity with the boolean loop
# --------------------------------------------------------------------- #


@settings(max_examples=120, deadline=None)
@given(
    fault_graphs(),
    st.sampled_from([0, 1, 63, 64, 65, 130]),
    st.integers(0, 2**31 - 1),
)
def test_matches_the_boolean_loop_bit_for_bit(graph, m, seed):
    compiled = CompiledGraph(graph)
    cuts = failing_rows(compiled, m, np.random.default_rng(seed))
    before = cuts.copy()
    rng_new = np.random.default_rng(seed + 1)
    rng_old = np.random.default_rng(seed + 1)
    minimal = minimise_cuts_batch(compiled, cuts, rng_new)
    expected = minimise_cuts_boolean(compiled, cuts, rng_old)
    np.testing.assert_array_equal(minimal, expected)
    assert minimal.dtype == expected.dtype == np.bool_
    assert minimal.shape == expected.shape == (m, compiled.n_basic)
    np.testing.assert_array_equal(cuts, before)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_matches_the_boolean_loop_on_the_layered_graph():
    compiled = CompiledGraph(layered_graph())
    cuts = failing_rows(compiled, 130, np.random.default_rng(4))
    minimal = minimise_cuts_batch(compiled, cuts, np.random.default_rng(5))
    expected = minimise_cuts_boolean(compiled, cuts, np.random.default_rng(5))
    np.testing.assert_array_equal(minimal, expected)
    assert (minimal.sum(axis=1) < cuts.sum(axis=1)).any()


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.integers(1, 130), st.data())
def test_threshold_bits_matches_popcount(children, rows, data):
    threshold = data.draw(st.integers(2, children - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    child_bools = rng.random((children, rows)) < 0.5
    child_bits = [
        sum(1 << r for r in np.flatnonzero(row)) for row in child_bools
    ]
    expected = child_bools.sum(axis=0) >= threshold
    assert _threshold_bits(child_bits, threshold) == sum(
        1 << r for r in np.flatnonzero(expected)
    )


# --------------------------------------------------------------------- #
# Input checks and edge blocks
# --------------------------------------------------------------------- #


def test_rejects_rows_that_are_not_risk_groups(deep_graph):
    compiled = CompiledGraph(deep_graph)
    cuts = np.ones((3, compiled.n_basic), dtype=bool)
    cuts[1] = False
    cuts[1, compiled.basic_position["tor1"]] = True  # tor1 alone passes
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(FaultGraphError, match="not risk groups"):
        minimise_cuts_batch(compiled, cuts, rng)
    assert rng.bit_generator.state == state  # rejected before any draw


def test_empty_block(deep_graph):
    compiled = CompiledGraph(deep_graph)
    cuts = np.zeros((0, compiled.n_basic), dtype=bool)
    minimal = minimise_cuts_batch(compiled, cuts, np.random.default_rng(0))
    assert minimal.shape == (0, compiled.n_basic)
    assert minimal.dtype == np.bool_


def test_all_single_event_block_is_returned_unchanged(deep_graph, monkeypatch):
    compiled = CompiledGraph(deep_graph)
    cuts = np.zeros((5, compiled.n_basic), dtype=bool)
    cuts[:, compiled.basic_position["libc6"]] = True
    calls = count_gate_evaluations(monkeypatch)
    minimal = minimise_cuts_batch(compiled, cuts, np.random.default_rng(0))
    np.testing.assert_array_equal(minimal, cuts)
    # Nothing is live, so only the one full evaluation ran.
    assert len(calls) == len(compiled.gate_order)


def test_basic_event_with_an_empty_cone():
    """A graph whose top *is* a basic event: no gate sits above it."""
    g = FaultGraph("leaf-top")
    g.add_basic_event("only")
    g.set_top("only")
    compiled = CompiledGraph(g)
    assert compiled.cones == ((),)
    cuts = np.ones((3, 1), dtype=bool)
    minimal = minimise_cuts_batch(compiled, cuts, np.random.default_rng(0))
    np.testing.assert_array_equal(minimal, cuts)


# --------------------------------------------------------------------- #
# Work done: one full evaluation plus one cone per live candidate
# --------------------------------------------------------------------- #


def test_gate_evaluations_are_one_pass_plus_live_cones(monkeypatch):
    compiled = CompiledGraph(layered_graph())
    n_gates = len(compiled.gate_order)
    cuts = failing_rows(compiled, 65, np.random.default_rng(7))
    calls = count_gate_evaluations(monkeypatch)
    minimise_cuts_batch(compiled, cuts, np.random.default_rng(8))

    # Replay the oracle to learn which candidates had live rows.
    current = cuts.copy()
    sizes = current.sum(axis=1)
    candidates = np.flatnonzero(current.any(axis=0))
    live_cones = 0
    for position in np.random.default_rng(8).permutation(candidates):
        rows = np.flatnonzero(current[:, position] & (sizes > 1))
        if rows.size == 0:
            continue
        live_cones += len(compiled.cones[position])
        trial = current[rows]
        trial[:, position] = False
        dropped = rows[compiled.evaluate_batch(trial)]
        current[dropped, position] = False
        sizes[dropped] -= 1

    assert len(calls) == n_gates + live_cones
    assert len(calls) < len(candidates) * n_gates  # the old loop's count
    assert calls[:n_gates] == compiled.gate_order


def test_cones_are_the_ancestor_gates_in_topological_order():
    graph = layered_graph()
    compiled = CompiledGraph(graph)
    for position, name in enumerate(compiled.basic_names):
        ancestors = {
            gate
            for gate in compiled.gate_order
            if name in graph.descendants(compiled.order[gate])
        }
        assert set(compiled.cones[position]) == ancestors
        assert list(compiled.cones[position]) == sorted(ancestors)
    by_name = dict(zip(compiled.basic_names, compiled.cones))
    assert len(by_name["direct"]) == 1 < len(by_name["L0"])


# --------------------------------------------------------------------- #
# Cones live on the compiled graph: built once, invisible to callers
# --------------------------------------------------------------------- #


def test_cones_are_built_once_across_calls():
    compiled = CompiledGraph(layered_graph())
    assert compiled._cones is None  # lazy: compile alone builds nothing
    cuts = failing_rows(compiled, 10, np.random.default_rng(0))
    minimise_cuts_batch(compiled, cuts, np.random.default_rng(1))
    built = compiled.cones
    minimise_cuts_batch(compiled, cuts, np.random.default_rng(2))
    assert compiled.cones is built


def test_pickle_and_cache_round_trips_are_unaffected():
    graph = layered_graph()
    cache = GraphCache()
    compiled = cache.compile(graph)
    cuts = failing_rows(compiled, 64, np.random.default_rng(3))
    expected = minimise_cuts_batch(compiled, cuts, np.random.default_rng(4))
    assert cache.compile(graph) is compiled  # cones ride on the cached entry

    fresh = CompiledGraph(graph)
    for clone in (
        pickle.loads(pickle.dumps(fresh)),  # before the cones exist
        pickle.loads(pickle.dumps(compiled)),  # and after
    ):
        assert clone.cones == compiled.cones
        np.testing.assert_array_equal(
            minimise_cuts_batch(clone, cuts, np.random.default_rng(4)),
            expected,
        )
