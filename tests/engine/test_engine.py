"""AuditEngine parity, determinism and integration.

The central guarantee (ISSUE 1 acceptance): for a fixed seed the
parallel/batched engine returns the *same* risk-group family and
top-probability estimate as an inline engine, for any worker count.
"""

import numpy as np
import pytest

from repro import (
    AuditSpec,
    ComponentSets,
    RGAlgorithm,
    SIAAuditor,
    minimal_risk_groups,
)
from repro.depdb import DepDB
from repro.engine import AuditEngine
from repro.engine.parallel import plan_blocks
from repro.errors import AnalysisError, SpecificationError

from tests.engine.test_incremental import SETS, jobs_for
from tests.engine.test_pool import sample_through_pool


@pytest.fixture
def provider_graph():
    """Fig-9-style two-way deployment with shared components."""
    sets = ComponentSets.from_mapping(
        {
            "P0": [f"shared-{j}" for j in range(6)]
            + [f"p0-{j}" for j in range(6)],
            "P1": [f"shared-{j}" for j in range(6)]
            + [f"p1-{j}" for j in range(6)],
        }
    )
    return sets.to_fault_graph("providers")


NETWORK_DEPDB = (
    '<src="S1" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S2" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S3" dst="Internet" route="ToR2,Core2"/>\n'
)


class TestSamplingParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_engine_matches_serial_sampler_exactly(
        self, provider_graph, workers
    ):
        serial = AuditEngine(n_workers=1).sample(
            provider_graph, 10_000, seed=123
        )
        with AuditEngine(n_workers=workers) as engine:
            result = sample_through_pool(
                engine, provider_graph, 10_000, seed=123
            )
        assert result.risk_groups == serial.risk_groups
        assert result.top_failures == serial.top_failures
        assert (
            result.top_probability_estimate
            == serial.top_probability_estimate
        )

    def test_worker_count_never_changes_results(self, provider_graph):
        results = []
        for workers in (1, 2, 3):
            with AuditEngine(n_workers=workers, block_size=2048) as engine:
                results.append(
                    sample_through_pool(engine, provider_graph, 5_000, seed=9)
                )
        for other in results[1:]:
            assert other.risk_groups == results[0].risk_groups
            assert other.top_failures == results[0].top_failures

    @pytest.mark.parametrize("minimise", [True, False])
    def test_parity_holds_in_both_modes(self, deep_graph, minimise):
        serial = AuditEngine(n_workers=1).sample(
            deep_graph, 6_000, seed=5, minimise=minimise
        )
        with AuditEngine(n_workers=2) as engine:
            parallel = sample_through_pool(
                engine, deep_graph, 6_000, seed=5, minimise=minimise
            )
        assert parallel.risk_groups == serial.risk_groups
        assert parallel.top_failures == serial.top_failures
        assert parallel.minimised is minimise

    def test_reweighted_twins_draw_one_stream_through_the_pool(
        self, figure_4b
    ):
        """Graphs that differ only in their weights are two worker-cache
        entries, yet draw the serial stream of either."""
        reweighted = figure_4b.copy()
        for event in reweighted.basic_events():
            reweighted.set_probability(event, 0.9)
        serial = AuditEngine(n_workers=1).sample(figure_4b, 8_192, seed=11)
        with AuditEngine(n_workers=2) as engine:
            for graph in (figure_4b, reweighted):
                parallel = sample_through_pool(engine, graph, 8_192, seed=11)
                assert parallel.top_failures == serial.top_failures
                assert parallel.risk_groups == serial.risk_groups

    def test_sampler_finds_exact_family(self, provider_graph):
        reference = minimal_risk_groups(provider_graph)
        with AuditEngine(n_workers=2) as engine:
            result = sample_through_pool(
                engine, provider_graph, 20_000, seed=0
            )
        assert result.detection_rate(reference) == 1.0

    def test_engine_seed_determinism(self, deep_graph):
        with AuditEngine(n_workers=2) as engine:
            first = sample_through_pool(engine, deep_graph, 12_000, seed=3)
            second = sample_through_pool(engine, deep_graph, 12_000, seed=3)
        assert first.risk_groups == second.risk_groups
        assert first.top_failures == second.top_failures

    def test_invalid_parameters(self, figure_4a):
        engine = AuditEngine()
        with pytest.raises(AnalysisError):
            engine.sample(figure_4a, 0)
        with pytest.raises(AnalysisError):
            engine.sample(figure_4a, 10, sample_probability=1.0)
        with pytest.raises(AnalysisError):
            AuditEngine(block_size=0)

    @pytest.mark.parametrize("block_size", [2.5, 256.0, True, "256", None])
    def test_non_integer_block_size_rejected(self, block_size):
        with pytest.raises(AnalysisError, match="block_size"):
            AuditEngine(block_size=block_size)

    @pytest.mark.parametrize("rounds", [100.0, True, "100"])
    def test_non_integer_sample_rounds_rejected(self, figure_4a, rounds):
        with pytest.raises(AnalysisError, match="rounds"):
            AuditEngine().sample(figure_4a, rounds)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_bad_seeds_rejected(self, figure_4a, seed):
        with pytest.raises(AnalysisError, match="seed"):
            AuditEngine().sample(figure_4a, 100, seed=seed)

    @pytest.mark.parametrize(
        "rounds, block_size",
        [(1000.0, 256), (1000, 256.0), (True, 256), (1000, True), ("1000", 256)],
    )
    def test_plan_blocks_rejects_non_integers(self, rounds, block_size):
        with pytest.raises(AnalysisError):
            plan_blocks(rounds, block_size, np.random.SeedSequence(0))

    def test_numpy_integer_counts_are_plain_ints(self, figure_4a):
        plan = plan_blocks(
            np.int64(600), np.int32(256), np.random.SeedSequence(0)
        )
        assert plan.rounds == (256, 256, 88)
        assert all(type(size) is int for size in plan.rounds)
        engine = AuditEngine(block_size=np.int64(256))
        assert type(engine.block_size) is int
        numpy_counts = engine.sample(figure_4a, np.int64(600), seed=1)
        plain = AuditEngine(block_size=256).sample(figure_4a, 600, seed=1)
        assert numpy_counts.risk_groups == plain.risk_groups
        assert numpy_counts.rounds == 600

    def test_cache_reused_across_samples(self, deep_graph):
        engine = AuditEngine()
        engine.sample(deep_graph, 100, seed=0)
        engine.sample(deep_graph, 100, seed=1)
        engine.sample(deep_graph.copy(), 100, seed=2)
        info = engine.cache.info()
        assert info["misses"] == 1
        assert info["hits"] == 2


class TestAuditorIntegration:
    def make_auditor(self, workers=1):
        depdb = DepDB.loads(NETWORK_DEPDB)
        return SIAAuditor(depdb, engine=AuditEngine(n_workers=workers))

    def spec(self, servers=("S1", "S2"), **kwargs):
        kwargs.setdefault("algorithm", RGAlgorithm.SAMPLING)
        kwargs.setdefault("sampling_rounds", 4_000)
        return AuditSpec(
            deployment=" & ".join(servers), servers=tuple(servers), **kwargs
        )

    def test_engine_audit_matches_plain_auditor(self):
        depdb = DepDB.loads(NETWORK_DEPDB)
        plain = SIAAuditor(depdb).audit_deployment(self.spec())
        engineered = self.make_auditor().audit_deployment(self.spec())
        assert [e.events for e in engineered.ranking] == [
            e.events for e in plain.ranking
        ]
        assert engineered.score == plain.score
        # Whole reports must match too — notes may not leak engine
        # details, or worker count would change serialized output.
        assert engineered.notes == plain.notes


class TestEngineInfo:
    def test_info_shape(self):
        info = AuditEngine(n_workers=2, block_size=512).info()
        assert info["workers"] == 2
        assert info["block_size"] == 512
        assert "cache" in info and "cpu_count" in info

    def test_negative_workers_means_all_cores(self):
        import os

        engine = AuditEngine(n_workers=-1)
        assert engine.n_workers == max(1, os.cpu_count() or 1)

    def test_none_workers_means_inline(self):
        assert AuditEngine(n_workers=None).n_workers == 1
        assert AuditEngine(n_workers=0).n_workers == 1


class TestAuditJobs:
    """``audit_jobs`` is the one process fan-out of spec-set auditing."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_jobs_are_audited_at_the_engines_block_size(self, workers):
        """The block plan, hence the sampled result, depends on the
        block size: the kernel must audit at the dispatching engine's,
        in whatever process it runs — not at a worker-side default."""
        jobs = jobs_for(SETS)  # 3 000 sampling rounds each, seed 0
        reference = SIAAuditor(
            jobs[0].depdb, engine=AuditEngine(block_size=512)
        )
        with AuditEngine(block_size=512, n_workers=workers) as engine:
            audits = engine.audit_jobs(jobs)
        assert [audit.to_dict() for audit in audits] == [
            reference.audit_deployment(job.spec).to_dict() for job in jobs
        ]


class TestAuditManyErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(SpecificationError):
            AuditEngine().audit_many(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(SpecificationError):
            AuditEngine().audit_many(tmp_path)

    def test_no_jobs(self):
        with pytest.raises(SpecificationError):
            AuditEngine().audit_jobs([])
