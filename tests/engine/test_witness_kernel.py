"""Witness extraction, bit for bit (ISSUE 21 pin).

``extract_witnesses_batch`` draws one ``rng.random`` per failing gate and
keeps ``threshold`` failing children per row.  Whatever shape the kernel
takes, it must stay *bit-identical* to the per-gate loop it started as —
same witness matrix row for row, same generator state afterwards — so
that loop is kept here, verbatim, as the oracle.  Fat-tree goldens only
exercise OR / AND gates and the engine parity suites compare engines that
share the kernel, so this file is what pins the k-of-n branch.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AuditSpec, SIAAuditor
from repro.core.compile import CompiledGraph
from repro.core.events import GateType
from repro.core.faultgraph import FaultGraph
from repro.depdb import DepDB, NetworkDependency
from repro.engine import batch
from repro.engine.batch import extract_witnesses_batch
from repro.topology import INTERNET, FatTreeConfig, fat_tree_routes

from tests.core.test_property_core import fault_graphs


def extract_witnesses_per_gate(compiled, values, rng):
    """The pre-ISSUE-21 body: one fancy-index + ``argpartition`` per gate
    over all the rows that need it."""
    values = np.asarray(values, dtype=bool)
    needed = np.zeros_like(values)
    needed[:, compiled.top_index] = True
    offs = compiled.child_offsets
    flat = compiled.flat_children
    # Parents sit after children in topological order, so walking gates in
    # reverse order resolves every gate's demand before its children's.
    for i in reversed(compiled.gate_order):
        rows = np.flatnonzero(needed[:, i])
        if rows.size == 0:
            continue
        kids = flat[offs[i]:offs[i + 1]]
        child_vals = values[np.ix_(rows, kids)]
        k = int(compiled.thresholds[i])
        if k >= kids.size:
            # AND gate: every child is required (and fails, since i fails).
            needed[np.ix_(rows, kids)] |= child_vals
            continue
        # OR / k-of-n: keep k failing children per row, chosen at random.
        scores = rng.random((rows.size, kids.size))
        scores[~child_vals] = np.inf
        chosen = np.argpartition(scores, k - 1, axis=1)[:, :k]
        selection = np.zeros_like(child_vals)
        np.put_along_axis(selection, chosen, True, axis=1)
        selection &= child_vals
        needed[np.ix_(rows, kids)] |= selection
    return needed[:, compiled.basic_index]


def failing_values(compiled, rounds, probability, rng):
    """Node values of the failing rounds of one boolean block."""
    failures = compiled.sample_failures(rounds, None, rng, probability)
    values = compiled.evaluate_batch(failures, return_all=True)
    return values[values[:, compiled.top_index]]


def assert_same_witnesses(compiled, values, seed):
    """Kernel and oracle from equal generator states: equal matrices and
    equal states afterwards, for C-ordered input and a transposed view."""
    rng_old = np.random.default_rng(seed)
    expected = extract_witnesses_per_gate(compiled, values, rng_old)
    fortran = np.asfortranarray(values)  # what a node-major block's .T is
    assert fortran.T.flags.c_contiguous
    for given in (np.ascontiguousarray(values), fortran):
        before = given.copy()
        rng_new = np.random.default_rng(seed)
        witnesses = extract_witnesses_batch(compiled, given, rng_new)
        np.testing.assert_array_equal(witnesses, expected)
        assert witnesses.dtype == np.bool_
        assert witnesses.shape == (len(values), compiled.n_basic)
        np.testing.assert_array_equal(given, before)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


# --------------------------------------------------------------------- #
# Graphs
# --------------------------------------------------------------------- #


def random_graph(seed: int) -> FaultGraph:
    """A seeded layered DAG built to hit every branch of the kernel.

    Layers alternate between *uniform* (every gate the same arity and
    threshold — a stretch of like gates) and *mixed* (arities cycle, so
    like gates never sit next to each other).  Children are drawn from
    every earlier node, so gates share children and some gates feed gates
    of their own kind.  Thresholds cover OR, AND, OR-of-1 and k-of-n with
    ``1 < k < n``; the top is an OR or a 2-of-n, so lower gates are needed
    in only the rows whose random choice reached them.
    """
    rng = np.random.default_rng(seed)
    g = FaultGraph(f"random-{seed}")
    nodes = [g.add_basic_event(f"L{i}") for i in range(int(rng.integers(4, 10)))]
    n_gates = 0

    def add(arity: int, k: int) -> None:
        nonlocal n_gates
        arity = min(arity, len(nodes))
        k = min(k, arity)
        children = [nodes[i] for i in rng.choice(len(nodes), arity, replace=False)]
        gate = (
            GateType.OR if k == 1 else GateType.AND if k == arity else GateType.K_OF_N
        )
        nodes.append(g.add_gate(f"G{n_gates}", gate, children, k=k))
        n_gates += 1

    shapes = [(3, 1), (3, 2), (1, 1), (4, 2), (2, 2), (4, 3), (2, 1), (4, 1)]
    for layer in range(int(rng.integers(2, 5))):
        width = int(rng.integers(2, 7))
        if (layer + seed) % 2:
            arity, k = shapes[int(rng.integers(len(shapes)))]
            for _ in range(width):
                add(arity, k)
        else:
            start = int(rng.integers(len(shapes)))
            for j in range(width):
                add(*shapes[(start + j) % len(shapes)])
    loose = [n for n in nodes if not g.parents(n)]
    if len(loose) == 1:
        g.set_top(loose[0])
    elif len(loose) >= 3 and seed % 3 == 0:
        g.add_gate("TOP", GateType.K_OF_N, loose, k=2, top=True)
    else:
        g.add_gate("TOP", GateType.OR, loose, top=True)
    g.validate()
    return g


def gate_shapes(compiled) -> list[tuple[int, int]]:
    """``(arity, threshold)`` per gate, in the kernel's visiting order."""
    offs = compiled.child_offsets
    return [
        (int(offs[i + 1] - offs[i]), int(compiled.thresholds[i]))
        for i in reversed(compiled.gate_order)
    ]


RANDOM_SEEDS = range(64)


def three_way_deployment(ports: int, servers: tuple[str, ...]) -> FaultGraph:
    """The three-way deployment of ``servers`` on a ``ports``-port fat tree."""
    tree = FatTreeConfig(ports)
    depdb = DepDB(
        NetworkDependency(src=server, dst=INTERNET, route=route)
        for server in servers
        for route in fat_tree_routes(tree, server)
    )
    return SIAAuditor(depdb).build_graph(
        AuditSpec(deployment="three-way", servers=servers)
    )


@pytest.fixture(scope="module")
def fat_tree_graph() -> FaultGraph:
    """The three-way deployment of the k=8 plan goldens: 48 OR-of-3 route
    gates in a row, three AND-of-16, OR-of-2, OR-of-1, an AND-of-3 top."""
    return three_way_deployment(8, ("srv-p0-t0-0", "srv-p3-t2-1", "srv-p5-t3-2"))


# --------------------------------------------------------------------- #
# Parity with the per-gate loop
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("fixture", ["deep_graph", "figure_4a", "figure_4b"])
@pytest.mark.parametrize("rounds", [1, 64, 300])
def test_matches_the_per_gate_loop_on_the_paper_graphs(request, fixture, rounds):
    compiled = CompiledGraph(request.getfixturevalue(fixture))
    values = failing_values(compiled, rounds, 0.6, np.random.default_rng(rounds))
    assert_same_witnesses(compiled, values, seed=rounds + 1)


@pytest.mark.parametrize("probability", [0.3, 0.5])
def test_matches_the_per_gate_loop_on_a_fat_tree_deployment(
    fat_tree_graph, probability
):
    compiled = CompiledGraph(fat_tree_graph)
    assert gate_shapes(compiled).count((3, 1)) == 48
    values = failing_values(compiled, 1500, probability, np.random.default_rng(8))
    assert len(values) > 100
    assert_same_witnesses(compiled, values, seed=9)


def test_matches_the_per_gate_loop_on_a_topology_a_block():
    """One 4 096-round block of a k=16 (Table 3 topology A) three-way
    deployment: ~1 700 failing rows, so the 192-gate OR-of-3 route run
    is cut into 16 slices of 12 gates — the shape the ledger's
    ``cold_sampling`` audit spends its witness time on."""
    compiled = CompiledGraph(
        three_way_deployment(16, ("srv-p0-t0-0", "srv-p7-t3-5", "srv-p13-t6-2"))
    )
    (k, gates, children), = [
        run for run in compiled.witness_plan if len(run[1]) == 192
    ]
    assert (k, children.shape[1]) == (1, 3)
    values = failing_values(compiled, 4096, 0.5, np.random.default_rng(16))
    assert 1600 < len(values) < 1900
    step = batch._SLICE_CELLS // (len(values) * 3)
    assert -(-len(gates) // step) == 16
    assert_same_witnesses(compiled, values, seed=17)


@settings(max_examples=200, deadline=None)
@given(
    graph=fault_graphs(),
    rounds=st.integers(1, 48),
    cells=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_slice_boundaries_fall_anywhere(graph, rounds, cells, seed):
    """A slice budget of a few cells cuts every run — k-of-n included —
    into slices of one or a few gates, at every offset: the kernel's
    per-slice index arithmetic must still be the per-gate loop's."""
    compiled = CompiledGraph(graph)
    values = failing_values(compiled, rounds, 0.6, np.random.default_rng(seed))
    with mock.patch.object(batch, "_SLICE_CELLS", cells):
        assert_same_witnesses(compiled, values, seed=seed + 1)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_matches_the_per_gate_loop_on_random_graphs(seed):
    compiled = CompiledGraph(random_graph(seed))
    for rounds, probability in ((40, 0.7), (200, 0.5)):
        values = failing_values(
            compiled, rounds, probability, np.random.default_rng(seed)
        )
        assert_same_witnesses(compiled, values, seed=seed + 1000)


def test_random_graphs_cover_every_branch():
    """The generator above is only a pin if it reaches what it claims."""
    shapes: set[tuple[int, int]] = set()
    like_neighbours = lone_gates = shared = partial = 0
    for seed in RANDOM_SEEDS:
        compiled = CompiledGraph(random_graph(seed))
        walk = gate_shapes(compiled)
        shapes.update(walk)
        same = [a == b for a, b in zip(walk, walk[1:])]
        like_neighbours += sum(same)
        lone_gates += sum(
            not (before or after)
            for before, after in zip([False] + same, same + [False])
        )
        shared += len(compiled.flat_children) > len(set(compiled.flat_children))
        values = failing_values(compiled, 200, 0.5, np.random.default_rng(seed))
        witnesses = extract_witnesses_batch(
            compiled, values, np.random.default_rng(seed)
        )
        # A leaf that fails in a row but is left out of its witness: the
        # gates above it were not needed (or chose otherwise) in that row.
        partial += bool((values[:, compiled.basic_index] & ~witnesses).any())
    assert any(1 < k < arity for arity, k in shapes)      # k-of-n proper
    assert any(arity == 1 for arity, _k in shapes)        # OR-of-1
    assert any(k == 1 < arity for arity, k in shapes)     # OR
    assert any(k == arity > 1 for arity, k in shapes)     # AND
    assert like_neighbours > 50 and lone_gates > 50
    assert shared > 50 and partial > 50


# --------------------------------------------------------------------- #
# Edge blocks
# --------------------------------------------------------------------- #


def test_empty_block(deep_graph):
    compiled = CompiledGraph(deep_graph)
    values = np.zeros((0, compiled.n_nodes), dtype=bool)
    assert_same_witnesses(compiled, values, seed=0)


def test_top_is_a_basic_event():
    g = FaultGraph("leaf-top")
    g.add_basic_event("only")
    g.set_top("only")
    compiled = CompiledGraph(g)
    assert_same_witnesses(compiled, np.ones((3, 1), dtype=bool), seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_values_that_are_not_an_evaluation_keep_the_guard(seed):
    """Rows where a needed gate "fails" with too few failing children:
    the chosen-but-passing children are masked out, identically."""
    compiled = CompiledGraph(random_graph(seed))
    rng = np.random.default_rng(seed)
    values = rng.random((120, compiled.n_nodes)) < 0.5
    values[:, compiled.top_index] = True
    assert_same_witnesses(compiled, values, seed=seed + 1)
