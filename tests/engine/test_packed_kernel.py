"""Bit-packed kernel parity.

The uint64 kernel evaluates 64 rounds per bitwise gate op but must stay
*bit-identical* to the boolean reference path: both draw the same random
stream, so every `BlockOutcome` field (rounds, top_failures, groups)
must match exactly — for any graph, probability, block size and round
count.  ``src/`` runs only the packed kernel; the block
built on the boolean evaluator lives here as the oracle
:func:`run_block_boolean`.  Everything above a block is a
deterministic composition of blocks, so block parity is the whole
contract.

A block stays node-major from witness to groups and dedupes once, at
the end; :func:`finish_block_row_major` keeps the row-major finish it
replaced (three dedupes, raw keys) as the oracle, outcome for outcome
and generator state for generator state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compile import (
    CompiledGraph,
    _threshold_words,
    pack_rounds,
    unpack_rounds,
)
from repro.core.events import GateType
from repro.core.faultgraph import FaultGraph
from repro.engine.batch import (
    BlockOutcome,
    _bits_to_rows,
    _finish_block,
    _minimise_node_major,
    _witnesses_node_major,
    extract_witnesses_batch,
    minimise_cuts_batch,
    run_block,
)

from tests.core.test_property_core import fault_graphs


def run_block_boolean(
    compiled,
    rounds,
    rng,
    *,
    probabilities=None,
    default_probability=0.5,
    minimise=True,
):
    """The boolean reference path of ``run_block`` (one byte per round)."""
    failures = compiled.sample_failures(
        rounds, probabilities, rng, default_probability=default_probability
    )
    values = compiled.evaluate_batch(failures, return_all=True)
    failing = np.flatnonzero(values[:, compiled.top_index])
    values_failing = values[failing].T if failing.size else None
    outcome = BlockOutcome(rounds=rounds, top_failures=int(failing.size))
    if failing.size == 0:
        return outcome
    return _finish_block(compiled, outcome, values_failing, rng, minimise)


def finish_block_row_major(compiled, outcome, values_failing, rng, minimise):
    """``_finish_block`` as it was row-major: the raw failing rows, the
    witnesses and the minimal rows each deduped by hashing packed rows,
    and only the distinct witnesses minimised."""

    def packed_keys(rows):
        packed = np.packbits(rows, axis=1)
        return packed.view(f"V{packed.shape[1]}").ravel().tolist()

    def keys_to_rows(keys):
        packed = np.frombuffer(b"".join(keys), dtype=np.uint8)
        return np.unpackbits(
            packed.reshape(len(keys), (compiled.n_basic + 7) // 8),
            axis=1,
            count=compiled.n_basic,
        ).astype(bool)

    def unique_rows(rows):
        return keys_to_rows(dict.fromkeys(packed_keys(rows)))

    def rows_to_groups(rows):
        names = compiled.basic_names
        return {frozenset(names[i] for i in np.flatnonzero(r)) for r in rows}

    raw = np.ascontiguousarray(values_failing[compiled.basic_index].T)
    raw_keys = set(packed_keys(raw))
    if not minimise:
        outcome.groups = rows_to_groups(keys_to_rows(raw_keys))
        return outcome
    witnesses = extract_witnesses_batch(compiled, values_failing.T, rng)
    minimal = minimise_cuts_batch(compiled, unique_rows(witnesses), rng)
    outcome.groups = rows_to_groups(unique_rows(minimal))
    return outcome


def failing_values(compiled, rounds, probability, rng):
    """A block's draw and evaluation: the ``(n_nodes, m)`` values of its
    failing rounds, or ``None`` when the top event never fails."""
    words = compiled.sample_failures_packed(
        rounds, None, rng, default_probability=probability
    )
    node_words = compiled.evaluate_batch_packed(words)
    failing = np.flatnonzero(
        unpack_rounds(node_words, rounds)[:, compiled.top_index]
    )
    if failing.size == 0:
        return None
    return compiled.unpack_node_major(node_words, failing)


# --------------------------------------------------------------------- #
# Word-level primitives
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 200),  # rounds (crosses the 64-bit word boundary)
    st.integers(1, 12),   # columns
    st.integers(0, 2**31 - 1),
)
def test_pack_unpack_roundtrip(rounds, cols, seed):
    rng = np.random.default_rng(seed)
    failures = rng.random((rounds, cols)) < 0.5
    words = pack_rounds(failures)
    assert words.shape == (cols, -(-rounds // 64))
    assert words.dtype == np.dtype("<u8")
    np.testing.assert_array_equal(unpack_rounds(words, rounds), failures)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9),    # children
    st.integers(1, 130),  # rounds
    st.data(),
)
def test_threshold_words_matches_popcount(children, rounds, data):
    threshold = data.draw(st.integers(1, children))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    child_bools = rng.random((rounds, children)) < 0.5
    result = _threshold_words(pack_rounds(child_bools), threshold)
    expected = child_bools.sum(axis=1) >= threshold
    np.testing.assert_array_equal(
        unpack_rounds(result[np.newaxis, :], rounds)[:, 0], expected
    )


@settings(max_examples=40, deadline=None)
@given(fault_graphs(), st.integers(1, 130), st.integers(0, 2**31 - 1))
def test_evaluate_batch_packed_matches_boolean(graph, rounds, seed):
    compiled = CompiledGraph(graph)
    rng = np.random.default_rng(seed)
    failures = rng.random((rounds, compiled.n_basic)) < 0.4
    node_words = compiled.evaluate_batch_packed(pack_rounds(failures))
    values = compiled.evaluate_batch(failures, return_all=True)
    np.testing.assert_array_equal(
        unpack_rounds(node_words, rounds), values
    )
    # Failing-row gather used for witness extraction agrees too.
    failing = np.flatnonzero(values[:, compiled.top_index])
    np.testing.assert_array_equal(
        compiled.unpack_assignments(node_words, failing), values[failing]
    )


@pytest.mark.parametrize(
    "gate, k", [(GateType.OR, None), (GateType.AND, None), (GateType.K_OF_N, 2)]
)
def test_evaluate_batch_packed_resolves_a_run_of_like_gates(gate, k):
    """One run of three like gates over different children evaluates
    gate by gate to what the boolean path finds."""
    g = FaultGraph("run")
    for i in range(6):
        g.add_basic_event(f"L{i}")
    gates = [
        g.add_gate(f"g{j}", gate, [f"L{(2 * j + m) % 6}" for m in range(3)], k=k)
        for j in range(3)
    ]
    g.add_gate("top", GateType.OR, gates, top=True)
    compiled = CompiledGraph(g)
    assert [len(run) for _k, run, _kids in compiled.witness_plan] == [1, 3]
    failures = np.random.default_rng(5).random((200, compiled.n_basic)) < 0.5
    np.testing.assert_array_equal(
        unpack_rounds(compiled.evaluate_batch_packed(pack_rounds(failures)), 200),
        compiled.evaluate_batch(failures, return_all=True),
    )


# --------------------------------------------------------------------- #
# Block-level parity: same BlockOutcome, bit for bit
# --------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    fault_graphs(),
    st.integers(1, 200),              # block size (rounds per block)
    st.floats(0.05, 0.8),             # sampling probability
    st.booleans(),                    # minimise
    st.integers(0, 2**31 - 1),
)
def test_run_block_packed_is_bit_identical(
    graph, rounds, probability, minimise, seed
):
    compiled = CompiledGraph(graph)
    outcomes = [
        kernel(
            compiled,
            rounds,
            np.random.default_rng(seed),
            default_probability=probability,
            minimise=minimise,
        )
        for kernel in (run_block, run_block_boolean)
    ]
    assert outcomes[0] == outcomes[1]


# --------------------------------------------------------------------- #
# The node-major finish gives what the row-major one gave
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    fault_graphs(),
    st.one_of(st.sampled_from((64, 256)), st.integers(1, 300)),
    st.floats(0.05, 0.8),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
def test_finish_block_matches_the_row_major_finish(
    graph, rounds, probability, minimise, seed
):
    compiled = CompiledGraph(graph)
    states, outcomes = [], []
    for finish in (_finish_block, finish_block_row_major):
        rng = np.random.default_rng(seed)
        values = failing_values(compiled, rounds, probability, rng)
        outcome = BlockOutcome(rounds=rounds, top_failures=0)
        if values is not None:
            outcome = finish(compiled, outcome, values, rng, minimise)
        outcomes.append(outcome)
        states.append(rng.bit_generator.state)
    assert outcomes[0] == outcomes[1]
    assert states[0] == states[1]


def block_witnesses(compiled, rounds, probability, seed):
    """A block's ``(n_basic, m)`` witnesses, or ``None`` when its top
    event never fails."""
    rng = np.random.default_rng(seed)
    values = failing_values(compiled, rounds, probability, rng)
    if values is None:
        return None
    return _witnesses_node_major(compiled, values, rng)


@settings(max_examples=60, deadline=None)
@given(
    fault_graphs(),
    st.integers(1, 300),
    st.floats(0.05, 0.8),
    st.integers(0, 2**31 - 1),
)
def test_minimise_cuts_batch_is_the_node_major_core_transposed(
    graph, rounds, probability, seed
):
    compiled = CompiledGraph(graph)
    witnesses = block_witnesses(compiled, rounds, probability, seed)
    if witnesses is None:
        return
    core_rng, public_rng = (np.random.default_rng(seed) for _ in range(2))
    core = _minimise_node_major(compiled, witnesses, core_rng)
    public = minimise_cuts_batch(compiled, witnesses.T, public_rng)
    assert public.flags.c_contiguous
    np.testing.assert_array_equal(
        public, _bits_to_rows(core, witnesses.shape[1]).T
    )
    assert public_rng.bit_generator.state == core_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    fault_graphs(),
    st.integers(1, 300),
    st.floats(0.05, 0.8),
    st.integers(0, 2**31 - 1),
)
def test_minimise_commutes_with_row_permutation(
    graph, rounds, probability, seed
):
    # Why no dedupe is needed before minimising: each cut (a column
    # here) is minimised on its own, and the one draw, the candidate
    # order, depends only on the set of events present.  Permuting the
    # cuts, with repeats, permutes the result and leaves the generator
    # where it was.
    compiled = CompiledGraph(graph)
    witnesses = block_witnesses(compiled, rounds, probability, seed)
    if witnesses is None:
        return
    m = witnesses.shape[1]
    shuffle = np.random.default_rng(seed + 1)
    order = np.concatenate(
        [shuffle.permutation(m), shuffle.integers(0, m, size=m // 2)]
    )
    runs = []
    for cuts in (witnesses, witnesses[:, order]):
        rng = np.random.default_rng(seed)
        bits = _minimise_node_major(compiled, cuts, rng)
        runs.append((_bits_to_rows(bits, cuts.shape[1]), rng))
    (plain, plain_rng), (permuted, permuted_rng) = runs
    np.testing.assert_array_equal(permuted, plain[:, order])
    assert permuted_rng.bit_generator.state == plain_rng.bit_generator.state
