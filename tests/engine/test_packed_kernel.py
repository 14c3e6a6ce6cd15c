"""Bit-packed kernel parity (ISSUE 7 tentpole).

The uint64 kernel evaluates 64 rounds per bitwise gate op but must stay
*bit-identical* to the boolean reference path: both draw the same random
stream, so every `BlockOutcome` field (rounds, top_failures, groups,
raw_keys) must match exactly — for any graph, probability, block size
and round count.  ``src/`` runs only the packed kernel; the block
built on the boolean evaluator lives here as the oracle
:func:`run_block_boolean`.  Everything above a block is a
deterministic composition of blocks, so block parity is the whole
contract.
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
from repro.engine.batch import BlockOutcome, _finish_block, run_block

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
