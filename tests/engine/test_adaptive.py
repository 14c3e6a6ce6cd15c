"""Adaptive early stopping, per-run seeding and worker resolution (ISSUE 7).

Three contracts:

* adaptive runs are *honest*: ``rounds`` / ``top_probability_estimate``
  reflect the rounds actually executed, the stopping point is decided in
  plan order (so it is worker-count invariant), and exact-rounds results
  are untouched by the feature existing;
* a sampler's k-th ``run()`` is a pure function of ``(graph, parameters,
  seed, k)`` — repeat calls draw fresh streams without mutating shared
  ``SeedSequence`` state;
* ``resolve_workers`` follows one convention everywhere: ``None``/0/1
  inline, exactly -1 = all CPUs, other negatives and anything but a
  Python or NumPy integer rejected.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import FailureSampler
from repro.core.componentset import ComponentSets
from repro.engine import AuditEngine
from repro.engine.adaptive import AdaptiveConfig, AdaptiveStopper
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


class TestStopper:
    def test_config_validation(self):
        with pytest.raises(AnalysisError):
            AdaptiveConfig(rel_tol=0.0)
        with pytest.raises(AnalysisError):
            AdaptiveConfig(abs_tol=-1.0)
        with pytest.raises(AnalysisError):
            AdaptiveConfig(confidence_z=0.0)
        with pytest.raises(AnalysisError):
            AdaptiveConfig(min_blocks=0)
        with pytest.raises(AnalysisError):
            AdaptiveConfig(patience_blocks=0)

    def test_never_stops_before_min_blocks(self):
        stopper = AdaptiveStopper(AdaptiveConfig(min_blocks=5, patience_blocks=1))
        settled = BlockOutcome(rounds=10_000, top_failures=5_000)
        for _ in range(4):
            assert stopper.observe(settled) is False
        assert stopper.observe(settled) is True

    def test_new_group_resets_patience(self):
        stopper = AdaptiveStopper(AdaptiveConfig(min_blocks=1, patience_blocks=2))
        quiet = BlockOutcome(rounds=10_000, top_failures=5_000)
        novel = BlockOutcome(
            rounds=10_000, top_failures=5_000, groups={frozenset({"x"})}
        )
        assert stopper.observe(quiet) is False
        assert stopper.observe(novel) is False  # new group: counter resets
        assert stopper.observe(quiet) is False
        assert stopper.observe(quiet) is True
        summary = stopper.summary()
        assert summary["stopped_early"] is True
        assert summary["blocks_observed"] == 4


class TestAdaptiveSampling:
    def test_early_stop_reports_honest_rounds(self):
        budget = 500_000
        sampler = FailureSampler(
            GRAPH, seed=3, batch_size=256, adaptive=True
        )
        result = sampler.run(budget)
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
        """With an unsatisfiable rule, adaptive mode is a pure no-op —
        the exact-rounds golden figures cannot be perturbed by it."""
        exact = FailureSampler(GRAPH, seed=9, batch_size=256).run(2000)
        adaptive = FailureSampler(
            GRAPH,
            seed=9,
            batch_size=256,
            adaptive=True,
            adaptive_config=AdaptiveConfig(min_blocks=10**6),
        ).run(2000)
        assert adaptive.rounds == exact.rounds == 2000
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


class TestRunIndexDeterminism:
    def test_repeat_runs_draw_fresh_reproducible_streams(self):
        first = FailureSampler(GRAPH, seed=21, batch_size=256)
        second = FailureSampler(GRAPH, seed=21, batch_size=256)
        a0, a1 = first.run(2000), first.run(2000)
        b0, b1 = second.run(2000), second.run(2000)
        # The k-th run is a pure function of (graph, parameters, seed, k):
        for ours, theirs in ((a0, b0), (a1, b1)):
            assert ours.top_failures == theirs.top_failures
            assert ours.risk_groups == theirs.risk_groups
        assert a0.metadata["run_index"] == 0
        assert a1.metadata["run_index"] == 1
        # ... and repeat runs are fresh streams, not replays.
        assert a0.top_failures != a1.top_failures or (
            a0.risk_groups != a1.risk_groups
        )

    def test_run_zero_matches_engine_stream(self):
        """Run 0 keeps the historical seeding, so engine-vs-sampler
        parity (and every golden pin built on it) is unchanged."""
        sampler = FailureSampler(GRAPH, seed=21, batch_size=256).run(2000)
        engine = AuditEngine(block_size=256).sample(GRAPH, 2000, seed=21)
        assert sampler.risk_groups == engine.risk_groups
        assert sampler.top_failures == engine.top_failures


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
