"""The incremental delta-audit layer (ISSUE 2 tentpole).

Covers the graph diff (and its equivalence with the structural hash),
bit-identical block/audit reuse in :class:`DeltaAuditEngine` and the
``audit_delta`` spec-set workflow (the ``indaas watch`` poll loop over
it is covered in ``tests/service/test_watch.py``).
"""

import pytest

from repro import AuditSpec, FailureSampler, GateType, RGAlgorithm, SIAAuditor
from repro.core.faultgraph import FaultGraph
from repro.depdb import DepDB
from repro.depdb.records import HardwareDependency
from repro.engine import (
    AuditEngine,
    AuditJob,
    DeltaAuditEngine,
    graph_delta,
    load_spec_set,
    structural_hash,
)
from repro.errors import SpecificationError


def chain_graph(shared="core", extra=None):
    """Small two-server graph with a shared leaf and optional extra leaf."""
    g = FaultGraph("g")
    leaves = ["a1", "a2", shared] + (list(extra) if extra else [])
    for leaf in leaves:
        g.add_basic_event(leaf)
    g.add_gate("S1", GateType.OR, ["a1", shared])
    g.add_gate("S2", GateType.OR, ["a2", shared])
    g.add_gate("top", GateType.AND, ["S1", "S2"], top=True)
    return g


class TestGraphDelta:
    def test_noop(self, deep_graph):
        delta = graph_delta(deep_graph, deep_graph.copy())
        assert delta.is_noop
        assert delta.affected == ()
        assert delta.affected_fraction == 0.0
        assert "no structural change" in delta.summary()

    def test_noop_iff_structural_hash_equal(self, deep_graph):
        same = deep_graph.copy()
        assert graph_delta(deep_graph, same).is_noop
        assert structural_hash(deep_graph) == structural_hash(same)
        changed = deep_graph.copy()
        changed.set_probability("libc6", 0.25)
        delta = graph_delta(deep_graph, changed)
        assert not delta.is_noop
        assert structural_hash(deep_graph) != structural_hash(changed)
        assert "libc6" in delta.changed

    def test_added_event_and_affected_cone(self):
        old = chain_graph()
        new = FaultGraph("g")
        for leaf in ("a1", "a2", "core", "a3"):
            new.add_basic_event(leaf)
        new.add_gate("S1", GateType.OR, ["a1", "core"])
        new.add_gate("S2", GateType.OR, ["a2", "core", "a3"])
        new.add_gate("top", GateType.AND, ["S1", "S2"], top=True)
        delta = graph_delta(old, new)
        assert delta.added == ("a3",)
        assert delta.removed == ()
        # S2 gained a child; the cone is the change + its ancestors.
        assert delta.changed == ("S2",)
        assert set(delta.affected) == {"a3", "S2", "top"}
        # The untouched server subtree stays outside the cone.
        assert "S1" not in delta.affected and "a1" not in delta.affected
        assert 0 < delta.affected_fraction < 1

    def test_removed_event_shows_parent_as_changed(self):
        old = FaultGraph("g")
        for leaf in ("a1", "a2", "core", "a3"):
            old.add_basic_event(leaf)
        old.add_gate("S1", GateType.OR, ["a1", "core", "a3"])
        old.add_gate("S2", GateType.OR, ["a2", "core"])
        old.add_gate("top", GateType.AND, ["S1", "S2"], top=True)
        new = chain_graph()
        delta = graph_delta(old, new)
        assert delta.removed == ("a3",)
        assert delta.changed == ("S1",)
        assert set(delta.affected) == {"S1", "top"}

    def test_top_change_is_not_noop(self, deep_graph):
        retopped = deep_graph.copy()
        retopped.set_top("S1")
        delta = graph_delta(deep_graph, retopped)
        assert delta.tops_differ
        assert not delta.is_noop
        # Re-rooting must not report an empty blast radius.
        assert "S1" in delta.affected
        assert delta.affected_fraction > 0
        assert delta.to_dict()["tops_differ"] is True

    def test_same_object_shortcut(self, deep_graph):
        delta = graph_delta(deep_graph, deep_graph)
        assert delta.is_noop
        assert delta.total_events == len(deep_graph.events())


class TestCachedSampling:
    def test_parity_with_serial_and_base_engine(self, deep_graph):
        serial = FailureSampler(deep_graph, seed=21).run(9_000)
        base = AuditEngine().sample(deep_graph, 9_000, seed=21)
        delta = DeltaAuditEngine().sample(deep_graph, 9_000, seed=21)
        for other in (base, delta):
            assert other.risk_groups == serial.risk_groups
            assert other.top_failures == serial.top_failures
            assert other.unique_failure_sets == serial.unique_failure_sets

    def test_repeat_sample_is_a_full_cache_hit(self, deep_graph):
        engine = DeltaAuditEngine(block_size=1024)
        first = engine.sample(deep_graph, 5_000, seed=3)
        second = engine.sample(deep_graph, 5_000, seed=3)
        assert second.risk_groups == first.risk_groups
        assert second.top_failures == first.top_failures
        assert second.metadata["incremental"] == {
            "blocks_reused": 5,
            "blocks_computed": 0,
        }

    def test_rounds_extension_reuses_prefix_blocks(self, deep_graph):
        engine = DeltaAuditEngine(block_size=1024)
        engine.sample(deep_graph, 2_048, seed=8)
        extended = engine.sample(deep_graph, 3_072, seed=8)
        # The first two SeedSequence.spawn children are identical, so
        # only the new third block is computed ...
        assert extended.metadata["incremental"] == {
            "blocks_reused": 2,
            "blocks_computed": 1,
        }
        # ... and the merged result still equals a cold run.
        cold = DeltaAuditEngine(block_size=1024).sample(
            deep_graph, 3_072, seed=8
        )
        assert extended.risk_groups == cold.risk_groups
        assert extended.top_failures == cold.top_failures

    def test_structural_change_invalidates_blocks(self, deep_graph):
        engine = DeltaAuditEngine()
        engine.sample(deep_graph, 4_000, seed=0)
        changed = deep_graph.copy()
        changed.set_probability("core", 0.5)
        result = engine.sample(changed, 4_000, seed=0)
        assert result.metadata["incremental"]["blocks_reused"] == 0

    def test_block_size_is_part_of_the_key(self, deep_graph):
        engine_a = DeltaAuditEngine(block_size=1000)
        engine_b = DeltaAuditEngine(block_size=4096)
        a = engine_a.sample(deep_graph, 4_000, seed=1)
        b = engine_b.sample(deep_graph, 4_000, seed=1)
        # Different stream definitions may legitimately differ ...
        assert a.rounds == b.rounds
        # ... and each equals its own serial counterpart.
        for block_size, result in ((1000, a), (4096, b)):
            serial = FailureSampler(
                deep_graph, seed=1, batch_size=block_size
            ).run(4_000)
            assert serial.risk_groups == result.risk_groups
            assert serial.top_failures == result.top_failures

    def test_seedless_sampling_skips_the_block_cache(self, deep_graph):
        """seed=None blocks can never hit again — storing them would
        only churn warm reusable entries out of the LRU."""
        engine = DeltaAuditEngine()
        result = engine.sample(deep_graph, 4_000, seed=None)
        assert result.metadata["incremental"]["blocks_computed"] == 1
        assert engine.cache_info()["blocks"]["entries"] == 0

    def test_weighted_sampling_through_the_cache(self, figure_4b):
        serial = FailureSampler(figure_4b, use_weights=True, seed=11).run(
            8_192
        )
        engine = DeltaAuditEngine()
        warm = engine.sample(figure_4b, 8_192, use_weights=True, seed=11)
        again = engine.sample(figure_4b, 8_192, use_weights=True, seed=11)
        assert warm.risk_groups == serial.risk_groups
        assert again.risk_groups == serial.risk_groups
        assert again.metadata["incremental"]["blocks_computed"] == 0


def provider_depdb(sets):
    return DepDB(
        HardwareDependency(hw=provider, type="component", dep=element)
        for provider in sets
        for element in sets[provider]
    )


def sampling_spec(a, b, rounds=3_000):
    return AuditSpec(
        deployment=f"{a} & {b}",
        servers=(a, b),
        algorithm=RGAlgorithm.SAMPLING,
        sampling_rounds=rounds,
        seed=0,
    )


SETS = {
    "P0": ["shared-0", "shared-1", "p0-0", "p0-1"],
    "P1": ["shared-0", "shared-1", "p1-0", "p1-1"],
    "P2": ["shared-0", "shared-1", "p2-0", "p2-1"],
}


def jobs_for(sets):
    depdb = provider_depdb(sets)
    pairs = [("P0", "P1"), ("P0", "P2"), ("P1", "P2")]
    return [
        AuditJob(depdb=depdb, spec=sampling_spec(a, b)) for a, b in pairs
    ]


class TestAuditDelta:
    def test_delta_reuses_unaffected_deployments(self):
        old_jobs = jobs_for(SETS)
        new_sets = {name: list(elements) for name, elements in SETS.items()}
        new_sets["P0"][-1] = "p0-replacement"
        new_jobs = jobs_for(new_sets)

        engine = DeltaAuditEngine()
        engine.audit_delta(None, old_jobs, title="t")
        outcome = engine.audit_delta(old_jobs, new_jobs, title="t")
        assert set(outcome.recomputed) == {"P0 & P1", "P0 & P2"}
        assert outcome.reused == ("P1 & P2",)
        assert [c.deployment for c in outcome.delta.changed] == [
            "P0 & P1",
            "P0 & P2",
        ]
        for change in outcome.delta.changed:
            assert "hw:p0-replacement" in change.delta.added
            assert "hw:p0-1" in change.delta.removed
            assert not change.spec_changed

        # The cold reference is the *other* path: the uncached fan-out
        # kernel of a base engine, not the delta engine against itself.
        cold = AuditEngine().audit_jobs(new_jobs)
        assert [a.to_dict() for a in outcome.report.audits] == [
            a.to_dict() for a in cold
        ]

    def test_first_run_treats_everything_as_added(self):
        outcome = DeltaAuditEngine().audit_delta(None, jobs_for(SETS))
        assert outcome.reused == ()
        assert set(outcome.delta.added) == {
            "P0 & P1",
            "P0 & P2",
            "P1 & P2",
        }
        assert outcome.reuse_fraction == 0.0

    def test_spec_parameter_change_forces_recompute(self):
        old_jobs = jobs_for(SETS)
        new_jobs = jobs_for(SETS)
        new_jobs[0] = AuditJob(
            depdb=new_jobs[0].depdb,
            spec=sampling_spec("P0", "P1", rounds=5_000),
        )
        engine = DeltaAuditEngine()
        engine.audit_delta(None, old_jobs)
        outcome = engine.audit_delta(old_jobs, new_jobs)
        assert outcome.recomputed == ("P0 & P1",)
        changed = outcome.delta.changed[0]
        assert changed.spec_changed and changed.delta.is_noop

    def test_added_and_removed_deployments(self):
        old_jobs = jobs_for(SETS)
        engine = DeltaAuditEngine()
        engine.audit_delta(None, old_jobs)
        outcome = engine.audit_delta(old_jobs, old_jobs[:2] )
        assert outcome.delta.removed == ("P1 & P2",)
        assert outcome.reused == ("P0 & P1", "P0 & P2")
        assert len(outcome.report.audits) == 2

    def test_delta_through_base_engine_facade(self):
        from repro.core.audit import SIAAuditor

        engine = AuditEngine()
        first = engine.audit_delta(None, jobs_for(SETS))
        assert first.reused == ()
        assert set(first.new_graphs) == {"P0 & P1", "P0 & P2", "P1 & P2"}
        # The facade memoises one delta companion, so a second call
        # sees the warm caches; feeding new_graphs back skips the
        # old-side rebuild entirely.
        builds = []
        original = SIAAuditor.build_graph
        try:
            SIAAuditor.build_graph = (
                lambda self, spec: builds.append(spec.deployment)
                or original(self, spec)
            )
            second = engine.audit_delta(
                jobs_for(SETS), jobs_for(SETS), old_graphs=first.new_graphs
            )
        finally:
            SIAAuditor.build_graph = original
        assert len(second.reused) == 3
        assert sorted(builds) == ["P0 & P1", "P0 & P2", "P1 & P2"]
        assert engine.delta() is engine.delta()

    def test_duplicate_deployment_names_rejected(self):
        jobs = jobs_for(SETS)
        with pytest.raises(SpecificationError, match="duplicate"):
            load_spec_set([jobs[0], jobs[0]])

    def test_mixed_ranking_methods_rejected(self):
        from repro.core.ranking import RankingMethod

        jobs = jobs_for(SETS)
        spec = sampling_spec("P1", "P2")
        spec.ranking = RankingMethod.PROBABILITY
        jobs[2] = AuditJob(depdb=jobs[2].depdb, spec=spec)
        with pytest.raises(SpecificationError, match="ranking"):
            DeltaAuditEngine().audit_delta(None, jobs)

    def test_seedless_sampling_audits_are_never_cached(self):
        """spec.seed=None means fresh entropy per cold run — serving a
        cached result would claim bit-identical reuse for output that
        is not reproducible."""
        depdb = provider_depdb(SETS)
        spec = AuditSpec(
            deployment="P0 & P1",
            servers=("P0", "P1"),
            algorithm=RGAlgorithm.SAMPLING,
            sampling_rounds=2_000,
            seed=None,
        )
        engine = DeltaAuditEngine()
        engine.audit_spec(depdb, spec)
        engine.audit_spec(depdb, spec)
        assert engine.cache_info()["audits"]["entries"] == 0
        job = AuditJob(depdb=depdb, spec=spec)
        outcome = engine.audit_delta([job], [job])
        assert outcome.recomputed == ("P0 & P1",)
        assert outcome.reused == ()

    def test_audit_spec_caches_by_structure(self):
        depdb = provider_depdb(SETS)
        engine = DeltaAuditEngine()
        spec = sampling_spec("P0", "P1")
        first = engine.audit_spec(depdb, spec)
        second = engine.audit_spec(depdb, spec)
        assert second is first  # cache hit returns the stored audit
        plain = SIAAuditor(depdb).audit_deployment(spec)
        assert [e.events for e in first.ranking] == [
            e.events for e in plain.ranking
        ]
        assert first.score == plain.score
        assert first.notes == plain.notes

    @pytest.mark.parametrize("first", [False, True])
    def test_adaptive_is_part_of_the_result_cache_key(self, first):
        """An adaptive audit stops early and says so in its notes; it is
        not interchangeable with the exact-rounds audit of the same
        request — on a warm engine (the one ``JobManager`` serves from)
        neither may be answered with the other's report, in either
        order."""
        import repro

        text = provider_depdb(SETS).dumps()
        params = dict(algorithm="sampling", rounds=100_000, seed=3)

        def audit(engine, adaptive):
            return repro.audit(
                text, ("P0", "P1"), engine=engine, adaptive=adaptive, **params
            ).to_json()

        cold = {flag: audit(DeltaAuditEngine(), flag) for flag in (False, True)}
        assert cold[False] != cold[True]  # the early stop is visible
        warm = DeltaAuditEngine()
        assert audit(warm, first) == cold[first]
        assert audit(warm, not first) == cold[not first]
