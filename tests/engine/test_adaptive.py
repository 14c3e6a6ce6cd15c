"""Adaptive early stopping, seeding and worker resolution (ISSUE 7).

Three contracts:

* adaptive runs are *honest*: ``rounds`` / ``top_probability_estimate``
  reflect the rounds actually executed, the stopping point is decided in
  plan order (so it is worker-count invariant), and exact-rounds results
  are untouched by the feature existing;
* ``AuditEngine.sample`` is a pure function of ``(graph, parameters,
  seed)``: a repeat call replays its stream, and a seed is ``None`` or a
  non-negative Python or NumPy integer, nothing else;
* ``resolve_workers`` follows one convention everywhere: ``None``/0/1
  inline, exactly -1 = all CPUs, other negatives and anything but a
  Python or NumPy integer rejected.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.core.componentset import ComponentSets
from repro.engine import AuditEngine
from repro.engine.adaptive import (
    ABS_TOL,
    CONFIDENCE_Z,
    MIN_BLOCKS,
    PATIENCE_BLOCKS,
    REL_TOL,
    AdaptiveStopper,
)
from repro.engine.batch import BlockOutcome
from repro.engine.parallel import resolve_workers
from repro.errors import AnalysisError
from repro.privacy.pipeline import _open_pool

SETS = {
    "P0": ["shared-0", "p0-0", "p0-1"],
    "P1": ["shared-0", "p1-0", "p1-1"],
    "P2": ["shared-0", "shared-1", "p2-0"],
}
GRAPH = ComponentSets.from_mapping(SETS).to_fault_graph("adaptive")

#: A block whose estimate is settled: 0.5 ± 0.013 after one block, far
#: inside the relative tolerance, so only the block counts can hold a
#: run of these back.
SETTLED = BlockOutcome(rounds=10_000, top_failures=5_000)


class TestStopper:
    def test_constants_keep_their_values(self):
        """No exact-rounds pin runs adaptive, so only this holds the
        rule's numbers still."""
        assert (REL_TOL, ABS_TOL, CONFIDENCE_Z) == (0.05, 1e-3, 2.576)
        assert (MIN_BLOCKS, PATIENCE_BLOCKS) == (4, 4)

    def test_a_wide_interval_holds_the_run(self):
        """Past both block counts, an estimate of 0.5 from 10-round
        blocks is still far too loose to stop on."""
        stopper = AdaptiveStopper()
        wide = BlockOutcome(rounds=10, top_failures=5)
        for _ in range(2 * (MIN_BLOCKS + PATIENCE_BLOCKS)):
            assert stopper.observe(wide) is False
        assert stopper.summary()["ci_halfwidth"] > REL_TOL * 0.5

    def test_all_zero_blocks_stop_on_the_continuity_floor(self):
        """With no failing round the halfwidth is the 1/(2n) correction
        alone: the run stops at the first block where it reaches
        ``ABS_TOL``, not the moment the block counts allow."""
        stopper = AdaptiveStopper()
        empty = BlockOutcome(rounds=40, top_failures=0)
        needed = math.ceil(0.5 / ABS_TOL / empty.rounds)
        assert needed > MIN_BLOCKS + PATIENCE_BLOCKS
        for _ in range(needed - 1):
            assert stopper.observe(empty) is False
        assert stopper.observe(empty) is True

    def test_never_stops_before_min_blocks(self):
        stopper = AdaptiveStopper()
        for _ in range(MIN_BLOCKS - 1):
            assert stopper.observe(SETTLED) is False
        assert stopper.observe(SETTLED) is True

    def test_new_group_resets_patience(self):
        stopper = AdaptiveStopper()
        novel = BlockOutcome(
            rounds=10_000, top_failures=5_000, groups={frozenset({"x"})}
        )
        for _ in range(MIN_BLOCKS - 1):
            assert stopper.observe(SETTLED) is False
        assert stopper.observe(novel) is False  # new group: counter resets
        for _ in range(PATIENCE_BLOCKS - 1):
            assert stopper.observe(SETTLED) is False
        assert stopper.observe(SETTLED) is True
        summary = stopper.summary()
        assert summary["stopped_early"] is True
        assert summary["blocks_observed"] == MIN_BLOCKS + PATIENCE_BLOCKS


class TestAdaptiveSampling:
    def test_early_stop_reports_honest_rounds(self):
        budget = 500_000
        result = AuditEngine(n_workers=1, block_size=256).sample(
            GRAPH, budget, seed=3, adaptive=True
        )
        assert result.rounds < budget
        meta = result.metadata
        assert meta["adaptive"] is True
        assert meta["stopped_early"] is True
        assert result.rounds == meta["blocks_observed"] * 256
        assert meta["engine"]["blocks"] == meta["blocks_observed"]
        assert meta["engine"]["blocks"] < meta["engine"]["planned_blocks"]
        assert (
            result.top_probability_estimate
            == result.top_failures / result.rounds
        )

    def test_non_stopping_adaptive_equals_exact(self):
        """A run too short to stop early is a pure no-op — the
        exact-rounds golden figures cannot be perturbed by it."""
        rounds = (MIN_BLOCKS - 1) * 256
        engine = AuditEngine(n_workers=1, block_size=256)
        exact = engine.sample(GRAPH, rounds, seed=9)
        adaptive = engine.sample(GRAPH, rounds, seed=9, adaptive=True)
        assert adaptive.rounds == exact.rounds == rounds
        assert adaptive.risk_groups == exact.risk_groups
        assert adaptive.top_failures == exact.top_failures
        assert adaptive.metadata["stopped_early"] is False
        assert "adaptive" not in exact.metadata

    def test_stopping_point_is_worker_count_invariant(self):
        results = [
            AuditEngine(n_workers=n, block_size=256).sample(
                GRAPH, 500_000, seed=3, adaptive=True
            )
            for n in (1, 3)
        ]
        serial, parallel = results
        assert serial.rounds == parallel.rounds < 500_000
        assert serial.risk_groups == parallel.risk_groups
        assert serial.top_failures == parallel.top_failures
        assert (
            serial.metadata["blocks_observed"]
            == parallel.metadata["blocks_observed"]
        )


class TestSeeding:
    def test_repeat_calls_replay_the_stream(self):
        engine = AuditEngine(n_workers=1, block_size=256)
        first = engine.sample(GRAPH, 2000, seed=21)
        again = engine.sample(GRAPH, 2000, seed=21)
        fresh = AuditEngine(n_workers=1, block_size=256).sample(
            GRAPH, 2000, seed=21
        )
        for result in (again, fresh):
            assert result.risk_groups == first.risk_groups
            assert result.top_failures == first.top_failures
        other = engine.sample(GRAPH, 2000, seed=22)
        assert other.top_failures != first.top_failures

    def test_numpy_integer_seed_is_the_same_seed(self):
        engine = AuditEngine(n_workers=1, block_size=256)
        plain = engine.sample(GRAPH, 2000, seed=21)
        numpy = engine.sample(GRAPH, 2000, seed=np.int64(21))
        assert numpy.risk_groups == plain.risk_groups
        assert numpy.top_failures == plain.top_failures

    @pytest.mark.parametrize(
        "seed",
        [np.random.SeedSequence(21), -1, 21.0, True],
        ids=["seed-sequence", "negative", "float", "bool"],
    )
    def test_other_seeds_rejected(self, seed):
        with pytest.raises(AnalysisError):
            AuditEngine(n_workers=1).sample(GRAPH, 100, seed=seed)


class TestResolveWorkers:
    @pytest.mark.parametrize("requested", [None, 0, 1])
    def test_inline_values(self, requested):
        assert resolve_workers(requested) == 1

    def test_minus_one_is_all_cpus(self):
        assert resolve_workers(-1) == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("requested", [-2, -5, -100])
    def test_other_negatives_rejected(self, requested):
        with pytest.raises(AnalysisError, match="exactly -1"):
            resolve_workers(requested)

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_numpy_integers_become_ints(self):
        resolved = resolve_workers(np.int64(3))
        assert resolved == 3 and type(resolved) is int

    @pytest.mark.parametrize(
        "requested",
        [
            pytest.param(2.5, id="fraction"),
            pytest.param(2.0, id="whole-float"),
            pytest.param(-1.0, id="minus-one-float"),
            pytest.param("2", id="str"),
            pytest.param(True, id="true"),
            pytest.param(False, id="false"),
            pytest.param(np.float64(2), id="numpy-float"),
        ],
    )
    def test_non_integers_rejected(self, requested):
        with pytest.raises(AnalysisError, match="must be an integer"):
            resolve_workers(requested)

    @pytest.mark.parametrize(
        "open_fan_out",
        [
            pytest.param(lambda n: AuditEngine(n_workers=n), id="engine"),
            pytest.param(_open_pool, id="pia"),
        ],
    )
    def test_fan_out_surfaces_reject_a_fractional_count(self, open_fan_out):
        with pytest.raises(AnalysisError, match="must be an integer"):
            open_fan_out(2.5)

    def test_engine_and_sampler_share_the_convention(self):
        with pytest.raises(AnalysisError, match="exactly -1"):
            AuditEngine(n_workers=-5)
        assert AuditEngine(n_workers=-1).n_workers == max(
            1, os.cpu_count() or 1
        )
