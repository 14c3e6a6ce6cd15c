"""Unit tests for the compiled (vectorised) fault-graph evaluator."""

import numpy as np
import pytest

from repro import FaultGraph, GateType
from repro.core.compile import CompiledGraph, pack_rounds
from repro.errors import FaultGraphError


@pytest.fixture
def compiled(deep_graph) -> CompiledGraph:
    return CompiledGraph(deep_graph)


class TestCompilation:
    def test_basic_names_follow_topo_order(self, compiled, deep_graph):
        assert set(compiled.basic_names) == set(deep_graph.basic_events())
        assert compiled.n_basic == 4

    def test_top_index_points_at_top(self, compiled, deep_graph):
        assert compiled.order[compiled.top_index] == deep_graph.top

    def test_requires_valid_graph(self):
        g = FaultGraph()
        g.add_basic_event("a")
        with pytest.raises(FaultGraphError):
            CompiledGraph(g)  # no top event


class TestBatchEvaluation:
    def test_matches_reference_evaluator(self, compiled, deep_graph):
        rng = np.random.default_rng(0)
        failures = rng.random((64, compiled.n_basic)) < 0.5
        batch_top = compiled.evaluate_batch(failures)
        for row in range(64):
            failed = {
                compiled.basic_names[i]
                for i in np.flatnonzero(failures[row])
            }
            assert batch_top[row] == deep_graph.evaluate(failed)

    def test_return_all_shape(self, compiled):
        failures = np.zeros((3, compiled.n_basic), dtype=bool)
        values = compiled.evaluate_batch(failures, return_all=True)
        assert values.shape == (3, compiled.n_nodes)
        assert not values.any()

    def test_wrong_width_rejected(self, compiled):
        with pytest.raises(FaultGraphError, match="expected shape"):
            compiled.evaluate_batch(np.zeros((2, 99), dtype=bool))

    def test_no_scalar_witness_kernel(self, compiled):
        """Witness extraction and minimisation live in ``engine.batch``
        (oracles: ``FaultGraph.evaluate``, ``is_minimal_risk_group``,
        ``minimise_cuts_boolean``); the compiled graph carries no second,
        one-assignment-at-a-time copy of them."""
        for name in (
            "evaluate_assignment",
            "top_fails",
            "_top_fails_scalar",
            "extract_witness",
            "_witness_sizes",
            "minimise_cut",
            "_basic_set",
        ):
            assert not hasattr(compiled, name)


class TestSampling:
    def test_uniform_sampling_rate(self, compiled):
        rng = np.random.default_rng(1)
        draws = compiled.sample_failures(4000, None, rng, 0.25)
        assert draws.shape == (4000, compiled.n_basic)
        assert abs(draws.mean() - 0.25) < 0.03

    def test_weighted_sampling(self, compiled):
        rng = np.random.default_rng(2)
        weights = [0.0, 1.0, 0.5, 0.5]
        draws = compiled.sample_failures(2000, weights, rng)
        assert not draws[:, 0].any()
        assert draws[:, 1].all()

    def test_weight_shape_checked(self, compiled):
        rng = np.random.default_rng(3)
        with pytest.raises(FaultGraphError):
            compiled.sample_failures(10, [0.5], rng)


class TestUnpackAssignments:
    """Selected rounds of a packed block, rounds-major and node-major."""

    @pytest.fixture
    def or_block(self):
        """An OR-of-3 graph with 70 all-failing rounds: two words, the
        last 58 bits of the second being padding."""
        g = FaultGraph("or3")
        for leaf in "abc":
            g.add_basic_event(leaf)
        g.add_gate("top", GateType.OR, list("abc"), top=True)
        compiled = CompiledGraph(g)
        words = compiled.evaluate_batch_packed(
            pack_rounds(np.ones((70, 3), dtype=bool))
        )
        assert words.shape == (4, 2)
        return compiled, words

    def test_both_forms_are_one_matrix(self, or_block):
        compiled, words = or_block
        rows = np.array([0, 63, 64, 69, 70, 127])
        node_major = compiled.unpack_node_major(words, rows)
        assert node_major.shape == (4, 6) and node_major.flags.c_contiguous
        assert node_major.dtype == np.bool_
        np.testing.assert_array_equal(
            node_major, [[True] * 4 + [False] * 2] * 4  # 70, 127: padding
        )
        rounds_major = compiled.unpack_assignments(words, rows)
        assert rounds_major.shape == (6, 4)
        np.testing.assert_array_equal(rounds_major, node_major.T)
        assert compiled.unpack_assignments(words, []).shape == (0, 4)

    @pytest.mark.parametrize("form", ["unpack_assignments", "unpack_node_major"])
    def test_negative_round_is_rejected_not_read_from_padding(
        self, or_block, form
    ):
        # Was: all False, read from padding bit 63 of the last word.
        compiled, words = or_block
        with pytest.raises(FaultGraphError, match=r"\[0, 128\)"):
            getattr(compiled, form)(words, [-1])
        with pytest.raises(FaultGraphError, match=r"\[0, 128\)"):
            getattr(compiled, form)(words, [5, -128, 7])

    @pytest.mark.parametrize("form", ["unpack_assignments", "unpack_node_major"])
    def test_round_past_the_last_word_is_a_typed_error(self, or_block, form):
        # Was: IndexError: index 2 is out of bounds.
        compiled, words = or_block
        with pytest.raises(FaultGraphError, match=r"\[0, 128\)"):
            getattr(compiled, form)(words, [128])
        with pytest.raises(FaultGraphError, match=r"\[0, 128\)"):
            getattr(compiled, form)(words, np.array([0, 4096]))
