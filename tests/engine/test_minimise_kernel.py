"""Cone-restricted bitset minimisation (ISSUE 13 tentpole).

``minimise_cuts_batch`` keeps one row bitset per node, evaluates the
graph once, and per candidate event re-evaluates only that event's
ancestor cone, an AND gate from its changed children alone.  It must
stay *bit-identical* to the loop it replaced — same matrix, same
dtype/shape, same generator state afterwards — so that loop is kept
here, verbatim, as the oracle.
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


def fat_tree_shaped_graph(top_k: int = 3) -> FaultGraph:
    """Three servers, each the AND of its four (tor, agg, core) route ORs,
    under a ``top_k``-of-3 top (3: an AND).  Each server's ToR feeds all
    four children of its AND, each aggregation switch two of them, and
    every core one route of every server."""
    g = FaultGraph(f"fat-tree-shaped-{top_k}")
    cores = [g.add_basic_event(f"core{a}{j}") for a in range(2) for j in range(2)]
    servers = []
    for s in range(3):
        tor = g.add_basic_event(f"tor{s}")
        aggs = [g.add_basic_event(f"agg{s}{a}") for a in range(2)]
        routes = [
            g.add_gate(f"route{s}{a}{j}", GateType.OR, [tor, aggs[a], cores[2 * a + j]])
            for a in range(2)
            for j in range(2)
        ]
        servers.append(g.add_gate(f"server{s}", GateType.AND, routes))
    if top_k == 3:
        g.add_gate("top", GateType.AND, servers, top=True)
    else:
        g.add_gate("top", GateType.K_OF_N, servers, k=top_k, top=True)
    return g


@st.composite
def shared_child_graphs(draw) -> FaultGraph:
    """:func:`fault_graphs` under a new AND or k-of-n top whose children
    are the old top and some of its gates: one event then feeds several
    children of the new gate."""
    graph = draw(fault_graphs())
    gates = [n for n in graph.topological_order() if not graph.is_basic(n)]
    extra = draw(st.lists(st.sampled_from(gates), min_size=1, max_size=3))
    kids = list(dict.fromkeys([graph.top, *extra]))
    if draw(st.booleans()):
        graph.add_gate("SHARED", GateType.AND, kids, top=True)
    else:
        k = draw(st.integers(1, len(kids)))
        graph.add_gate("SHARED", GateType.K_OF_N, kids, k=k, top=True)
    graph.validate()
    return graph


def assert_matches_the_boolean_loop(compiled, cuts, seed) -> np.ndarray:
    """Bytes, dtype, shape and generator state afterwards, against the
    oracle; the input is left alone."""
    before = cuts.copy()
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    minimal = minimise_cuts_batch(compiled, cuts, rng_new)
    expected = minimise_cuts_boolean(compiled, cuts, rng_old)
    assert minimal.tobytes() == expected.tobytes()
    assert minimal.dtype == expected.dtype == np.bool_
    assert minimal.shape == expected.shape == cuts.shape
    assert minimal.flags.c_contiguous
    np.testing.assert_array_equal(cuts, before)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return minimal


def count_gate_evaluations(monkeypatch) -> list[int]:
    """Every gate update minimisation makes.  The one full pass, and each
    trial's OR and k-of-n gates, go through ``evaluate_gate_bits``; each
    trial's AND gates are updated inside its one ``clear_cone_bits``
    call, once each (``test_clear_cone_bits_writes_each_cone_gate_once``)."""
    calls: list[int] = []
    real_gate = CompiledGraph.evaluate_gate_bits
    real_cone = CompiledGraph.clear_cone_bits

    def counting_gate(self, gate, bits):
        calls.append(gate)
        return real_gate(self, gate, bits)

    def counting_cone(self, position, bits):
        plan = zip(self.cones[position], self.cone_plans[position])
        calls.extend(gate for gate, changed in plan if changed is not None)
        return real_cone(self, position, bits)

    monkeypatch.setattr(CompiledGraph, "evaluate_gate_bits", counting_gate)
    monkeypatch.setattr(CompiledGraph, "clear_cone_bits", counting_cone)
    return calls


def full_pass(compiled, rows: np.ndarray) -> list[int]:
    """Row bitsets of every node under ``(m, n_basic)`` boolean rows."""
    bits = [0] * compiled.n_nodes
    for node, column in zip(compiled.basic_index.tolist(), rows.T):
        bits[node] = sum(1 << r for r in np.flatnonzero(column))
    for gate in compiled.gate_order:
        bits[gate] = compiled.evaluate_gate_bits(gate, bits)
    return bits


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


@settings(max_examples=120, deadline=None)
@given(
    shared_child_graphs(),
    st.sampled_from([1, 64, 130]),
    st.integers(0, 2**31 - 1),
)
def test_matches_the_boolean_loop_under_shared_children(graph, m, seed):
    compiled = CompiledGraph(graph)
    cuts = failing_rows(compiled, m, np.random.default_rng(seed))
    assert_matches_the_boolean_loop(compiled, cuts, seed + 1)


@pytest.mark.parametrize("top_k", [3, 2, 1])
@pytest.mark.parametrize("seed", range(4))
def test_matches_the_boolean_loop_on_a_fat_tree_shape(top_k, seed):
    """ANDs whose children share ToRs, aggregation switches and cores,
    under an AND, a 2-of-3 and an OR top."""
    compiled = CompiledGraph(fat_tree_shaped_graph(top_k))
    cuts = failing_rows(compiled, 200, np.random.default_rng(seed))
    minimal = assert_matches_the_boolean_loop(compiled, cuts, seed + 10)
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


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(fault_graphs(), shared_child_graphs()),
    st.integers(1, 70),
    st.data(),
)
def test_clear_cone_bits_equals_a_full_pass(graph, m, data):
    """Clear any bits of one event, update its cone: every node then holds
    what a whole-graph evaluation of the new rows gives."""
    compiled = CompiledGraph(graph)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    rows = rng.random((m, compiled.n_basic)) < 0.5
    position = data.draw(st.integers(0, compiled.n_basic - 1))
    bits = full_pass(compiled, rows)
    rows[:, position] &= rng.random(m) < 0.5
    expected = full_pass(compiled, rows)
    node = int(compiled.basic_index[position])
    bits[node] = expected[node]
    compiled.clear_cone_bits(position, bits)
    assert bits == expected


class RecordingBits(list):
    def __init__(self, values):
        super().__init__(values)
        self.writes: list[int] = []

    def __setitem__(self, index, value):
        self.writes.append(index)
        super().__setitem__(index, value)


def test_clear_cone_bits_writes_each_cone_gate_once():
    compiled = CompiledGraph(layered_graph())
    rows = failing_rows(compiled, 40, np.random.default_rng(2))
    for position in range(compiled.n_basic):
        bits = RecordingBits(full_pass(compiled, rows))
        compiled.clear_cone_bits(position, bits)
        assert bits.writes == list(compiled.cones[position])


def test_cone_plans_and_only_changed_children():
    """On the fat-tree shape a core sits on one route of every server, so
    each server's AND reads one child instead of four; a ToR's AND reads
    all four, and the top AND the one server that changed."""
    compiled = CompiledGraph(fat_tree_shaped_graph())
    order = compiled.order

    def plan(event):
        position = compiled.basic_position[event]
        cone, changed = compiled.cones[position], compiled.cone_plans[position]
        assert len(changed) == len(cone)
        return {
            order[gate]: None if kids is None else sorted(order[c] for c in kids)
            for gate, kids in zip(cone, changed)
        }

    assert plan("core01") == {
        "route001": None,
        "route101": None,
        "route201": None,
        "server0": ["route001"],
        "server1": ["route101"],
        "server2": ["route201"],
        "top": ["server0", "server1", "server2"],
    }
    tor = plan("tor1")
    assert tor["server1"] == sorted(f"route1{a}{j}" for a in range(2) for j in range(2))
    assert tor["top"] == ["server1"]
    # A 2-of-3 top is re-evaluated from all its children.
    vote = CompiledGraph(fat_tree_shaped_graph(2))
    assert vote.cone_plans[vote.basic_position["core00"]][-1] is None
    assert vote.order[vote.cones[vote.basic_position["core00"]][-1]] == "top"


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
    assert compiled._cone_plans is None
    cuts = failing_rows(compiled, 10, np.random.default_rng(0))
    minimise_cuts_batch(compiled, cuts, np.random.default_rng(1))
    built, plans = compiled.cones, compiled.cone_plans
    minimise_cuts_batch(compiled, cuts, np.random.default_rng(2))
    assert compiled.cones is built
    assert compiled.cone_plans is plans


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
        assert clone.cone_plans == compiled.cone_plans
        np.testing.assert_array_equal(
            minimise_cuts_batch(clone, cuts, np.random.default_rng(4)),
            expected,
        )
