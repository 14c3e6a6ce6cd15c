"""Bit-packed kernel parity.

The uint64 kernel evaluates 64 rounds per bitwise gate op but must stay
*bit-identical* to the boolean reference path: both draw the same random
stream, so every `BlockOutcome` field (rounds, top_failures, groups,
raw_keys) must match exactly — for any graph, probability, block size
and round count.  ``src/`` runs only the packed kernel; the block
built on the boolean evaluator lives here as the oracle
:func:`run_block_boolean`.  Everything above a block is a
deterministic composition of blocks, so block parity is the whole
contract.

A block's dedupe hashes packed rows; :func:`finish_block_sorted` keeps
the ``np.unique(axis=0)`` version it replaced as the oracle, outcome for
outcome and generator state for generator state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.compile import (
    CompiledGraph,
    _threshold_words,
    pack_rounds,
    unpack_rounds,
)
from repro.engine.batch import (
    BlockOutcome,
    _finish_block,
    _witnesses_node_major,
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


def finish_block_sorted(compiled, outcome, values_failing, rng, minimise):
    """``_finish_block`` as it was when every dedupe sorted its rows with
    ``np.unique(axis=0)`` — the reference the hashing dedupe is held to."""

    def unique_rows(rows):
        unique = np.unique(np.packbits(rows, axis=1), axis=0)
        return np.unpackbits(unique, axis=1, count=compiled.n_basic).astype(
            bool
        )

    def rows_to_groups(rows):
        names = compiled.basic_names
        return {frozenset(names[i] for i in np.flatnonzero(r)) for r in rows}

    raw = np.ascontiguousarray(values_failing[compiled.basic_index].T)
    unique_packed = np.unique(np.packbits(raw, axis=1), axis=0)
    outcome.raw_keys = {row.tobytes() for row in unique_packed}
    if not minimise:
        outcome.groups = rows_to_groups(
            np.unpackbits(
                unique_packed, axis=1, count=compiled.n_basic
            ).astype(bool)
        )
        return outcome
    witnesses = _witnesses_node_major(compiled, values_failing, rng)
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
# Deduplication: hashing gives what sorting gave, generator state too
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    fault_graphs(),
    st.integers(1, 300),
    st.floats(0.05, 0.8),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
def test_finish_block_matches_the_sorting_dedupe(
    graph, rounds, probability, minimise, seed
):
    compiled = CompiledGraph(graph)
    states, outcomes = [], []
    for finish in (_finish_block, finish_block_sorted):
        rng = np.random.default_rng(seed)
        values = failing_values(compiled, rounds, probability, rng)
        outcome = BlockOutcome(rounds=rounds, top_failures=0)
        if values is not None:
            outcome = finish(compiled, outcome, values, rng, minimise)
        outcomes.append(outcome)
        states.append(rng.bit_generator.state)
    assert outcomes[0] == outcomes[1]
    assert states[0] == states[1]


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
    # Why the dedupe need not sort: each row is minimised on its own,
    # and the one draw, the candidate order, depends only on the set of
    # columns present.  Permuting the rows permutes the result and
    # leaves the generator where it was.
    compiled = CompiledGraph(graph)
    rng = np.random.default_rng(seed)
    values = failing_values(compiled, rounds, probability, rng)
    if values is None:
        return
    witnesses = _witnesses_node_major(compiled, values, rng)
    order = np.random.default_rng(seed + 1).permutation(len(witnesses))
    runs = []
    for rows in (witnesses, witnesses[order]):
        rng = np.random.default_rng(seed)
        runs.append((minimise_cuts_batch(compiled, rows, rng), rng))
    (plain, plain_rng), (permuted, permuted_rng) = runs
    np.testing.assert_array_equal(permuted, plain[order])
    assert permuted_rng.bit_generator.state == plain_rng.bit_generator.state
