"""Vectorised witness extraction and batch cut minimisation."""

import numpy as np
import pytest

from repro.core.compile import CompiledGraph
from repro.core.minimal_rg import is_minimal_risk_group, minimal_risk_groups
from repro.engine.batch import (
    extract_witnesses_batch,
    minimise_cuts_batch,
    run_block,
)
from repro.errors import FaultGraphError


def failing_values(compiled, rng, rounds=512, probability=0.5):
    failures = compiled.sample_failures(rounds, None, rng, probability)
    values = compiled.evaluate_batch(failures, return_all=True)
    failing = np.flatnonzero(values[:, compiled.top_index])
    return failures[failing], values[failing]


class TestExtractWitnessesBatch:
    def test_witnesses_are_failing_subsets(self, deep_graph):
        compiled = CompiledGraph(deep_graph)
        rng = np.random.default_rng(0)
        failures, values = failing_values(compiled, rng)
        witnesses = extract_witnesses_batch(compiled, values, rng)
        assert witnesses.shape == failures.shape
        # Every witness is contained in its raw failing set...
        assert not (witnesses & ~failures).any()
        # ...and still fails the top event on its own.
        assert compiled.evaluate_batch(witnesses).all()

    def test_rejects_passing_rows(self, figure_4a):
        compiled = CompiledGraph(figure_4a)
        values = np.zeros((1, compiled.n_nodes), dtype=bool)
        with pytest.raises(FaultGraphError):
            extract_witnesses_batch(
                compiled, values, np.random.default_rng(0)
            )

    def test_rejects_wrong_shape(self, figure_4a):
        compiled = CompiledGraph(figure_4a)
        with pytest.raises(FaultGraphError):
            extract_witnesses_batch(
                compiled,
                np.ones((2, compiled.n_nodes + 1), dtype=bool),
                np.random.default_rng(0),
            )

    def test_matches_scalar_witness_semantics(self, deep_graph):
        """The witness contract, one assignment at a time: every batch
        witness, on its own, fails the top event per the reference
        evaluator ``FaultGraph.evaluate``."""
        compiled = CompiledGraph(deep_graph)
        rng = np.random.default_rng(1)
        _failures, values = failing_values(compiled, rng, rounds=256)
        witnesses = extract_witnesses_batch(compiled, values, rng)
        names = compiled.basic_names
        batch = {
            frozenset(names[i] for i in np.flatnonzero(w)) for w in witnesses
        }
        assert batch
        for witness in batch:
            assert deep_graph.evaluate(witness)


class TestMinimiseCutsBatch:
    def test_rows_become_minimal_risk_groups(self, deep_graph):
        compiled = CompiledGraph(deep_graph)
        rng = np.random.default_rng(3)
        _failures, values = failing_values(compiled, rng)
        witnesses = extract_witnesses_batch(compiled, values, rng)
        minimal = minimise_cuts_batch(compiled, witnesses, rng)
        names = compiled.basic_names
        for row in np.unique(minimal, axis=0):
            group = {names[i] for i in np.flatnonzero(row)}
            assert is_minimal_risk_group(deep_graph, group)

    def test_input_not_mutated(self, figure_4a):
        compiled = CompiledGraph(figure_4a)
        cuts = np.ones((2, compiled.n_basic), dtype=bool)
        before = cuts.copy()
        minimise_cuts_batch(compiled, cuts, np.random.default_rng(0))
        assert (cuts == before).all()

    def test_rejects_wrong_shape(self, figure_4a):
        compiled = CompiledGraph(figure_4a)
        with pytest.raises(FaultGraphError):
            minimise_cuts_batch(
                compiled,
                np.ones((1, compiled.n_basic + 2), dtype=bool),
                np.random.default_rng(0),
            )


class TestRunBlock:
    def test_counts_and_groups(self, figure_4a):
        compiled = CompiledGraph(figure_4a)
        outcome = run_block(compiled, 2000, np.random.default_rng(0))
        assert outcome.rounds == 2000
        assert 0 < outcome.top_failures <= 2000
        assert outcome.groups
        # Minimised block groups are true minimal RGs, so they must be
        # drawn from the exact family.
        assert outcome.groups <= set(minimal_risk_groups(figure_4a))
        assert len(outcome.groups) <= outcome.top_failures

    def test_raw_mode_returns_failing_sets(self, figure_4a):
        compiled = CompiledGraph(figure_4a)
        outcome = run_block(
            compiled, 500, np.random.default_rng(1), minimise=False
        )
        assert 0 < len(outcome.groups) <= outcome.top_failures
        for group in outcome.groups:
            assert figure_4a.evaluate(group)

    def test_no_failures_block(self, deep_graph):
        compiled = CompiledGraph(deep_graph)
        # With a tiny failure probability most blocks see no top failure.
        outcome = run_block(
            compiled,
            3,
            np.random.default_rng(5),
            default_probability=1e-9,
        )
        assert outcome.top_failures == 0
        assert outcome.groups == set()

    def test_block_is_a_pure_function_of_its_seed(self, deep_graph):
        compiled = CompiledGraph(deep_graph)
        first = run_block(compiled, 1000, np.random.default_rng(7))
        second = run_block(compiled, 1000, np.random.default_rng(7))
        assert first.top_failures == second.top_failures
        assert first.groups == second.groups
