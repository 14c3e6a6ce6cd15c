"""The incremental delta-audit layer (ISSUE 2 tentpole).

Covers the graph diff (and its equivalence with the structural hash),
bit-identical audit reuse through the engine's result cache, the guards
that no block-level cache sits under it, and the ``audit_delta`` spec-set
workflow (the ``indaas watch`` poll loop over it is covered in
``tests/service/test_watch.py``).
"""

import gc
import inspect
import tracemalloc

import numpy as np
import pytest

from repro import AuditSpec, FailureSampler, GateType, RGAlgorithm, SIAAuditor
from repro.core.componentset import ComponentSets
from repro.core.faultgraph import FaultGraph
from repro.depdb import DepDB
from repro.depdb.records import HardwareDependency
from repro.engine import (
    AuditEngine,
    AuditJob,
    graph_delta,
    load_spec_set,
    structural_hash,
)
from repro.engine.parallel import plan_blocks, run_plan_serial
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
    """No block-level cache sits under the result cache (ISSUE 19):
    sampling on a warm engine is sampling."""

    def test_parity_with_serial_and_base_engine(self, deep_graph):
        serial = FailureSampler(deep_graph, seed=21).run(9_000)
        engine = AuditEngine().sample(deep_graph, 9_000, seed=21)
        assert engine.risk_groups == serial.risk_groups
        assert engine.top_failures == serial.top_failures
        assert engine.unique_failure_sets == serial.unique_failure_sets

    def test_block_size_is_part_of_the_key(self, deep_graph):
        engine_a = AuditEngine(block_size=1000)
        engine_b = AuditEngine(block_size=4096)
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

    def test_weighted_sampling_through_the_cache(self, figure_4b):
        serial = FailureSampler(figure_4b, use_weights=True, seed=11).run(
            8_192
        )
        engine = AuditEngine()
        warm = engine.sample(figure_4b, 8_192, use_weights=True, seed=11)
        again = engine.sample(figure_4b, 8_192, use_weights=True, seed=11)
        assert warm.risk_groups == serial.risk_groups
        assert again.risk_groups == serial.risk_groups

    def test_one_sampling_body(self, deep_graph):
        """Surface guards: no block cache, in the signatures or the
        result metadata."""
        assert "max_cached_blocks" not in inspect.signature(
            AuditEngine
        ).parameters
        assert "reusable_stream" not in inspect.signature(
            AuditEngine._run_plan
        ).parameters
        engine = AuditEngine()
        assert set(engine.cache_info()) == {"graphs", "audits"}
        result = engine.sample(deep_graph, 2_000, seed=0)
        assert "incremental" not in result.metadata

    def test_sampling_retains_no_block_outcomes(self):
        """Twenty distinct-seed ``sample()`` calls on a warm engine keep
        less than one call's block outcomes alive.

        Measured on this graph (4 096 rounds, ≈4 k distinct raw keys per
        block): one call's outcomes weigh 515 017 B; the 20 calls retain
        176 B here and 10 293 552 B (19.99 × one call) with the block
        cache of the parent commit.
        """
        sets = {
            f"P{i}": ["shared-0", "shared-1"]
            + [f"p{i}-{j}" for j in range(10)]
            for i in range(3)
        }
        graph = ComponentSets.from_mapping(sets).to_fault_graph("wide")
        engine = AuditEngine()
        engine.sample(graph, 4_096, seed=0)  # warm-up: compile, imports

        def traced() -> int:
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            base = traced()
            held = run_plan_serial(
                engine.compile(graph),
                plan_blocks(
                    4_096, engine.block_size, np.random.SeedSequence(99)
                ),
                probabilities=None,
                default_probability=0.5,
                minimise=True,
            )
            one_call = traced() - base
            del held
            base = traced()
            for seed in range(1, 21):
                engine.sample(graph, 4_096, seed=seed)
            retained = traced() - base
        finally:
            tracemalloc.stop()
        assert one_call > 100_000  # the yardstick is not trivially small
        assert retained < one_call


def test_adaptive_delta_sampling_fans_out(deep_graph):
    """An adaptive audit on a caching engine uses its workers (it once
    ran every block inline: ``tasks == 0``), and where blocks run
    changes nothing."""

    def fields(result):
        return (
            result.risk_groups,
            result.top_failures,
            result.rounds,
            result.metadata["stopped_early"],
        )

    call = dict(seed=1, adaptive=True)
    with AuditEngine(n_workers=2, block_size=256) as engine:
        pooled = engine.sample(deep_graph, 20_000, **call)
        assert engine.pool.stats()["tasks"] > 0
    inline = AuditEngine(block_size=256).sample(
        deep_graph, 20_000, **call
    )
    assert fields(pooled) == fields(inline)
    assert pooled.metadata["stopped_early"]


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

        engine = AuditEngine()
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
        # kernel of another engine, not the result cache against itself.
        cold = AuditEngine().audit_jobs(new_jobs)
        assert [a.to_dict() for a in outcome.report.audits] == [
            a.to_dict() for a in cold
        ]

    def test_first_run_treats_everything_as_added(self):
        outcome = AuditEngine().audit_delta(None, jobs_for(SETS))
        assert outcome.reused == ()
        assert set(outcome.delta.added) == {
            "P0 & P1",
            "P0 & P2",
            "P1 & P2",
        }
        assert outcome.recomputed == ("P0 & P1", "P0 & P2", "P1 & P2")

    def test_worker_count_does_not_change_report_bytes(self):
        jobs = jobs_for(SETS)
        serial = AuditEngine(n_workers=1).audit_delta(None, jobs)
        with AuditEngine(n_workers=2) as engine:
            parallel = engine.audit_delta(None, jobs)
        assert serial.report.to_json() == parallel.report.to_json()
        assert "engine" not in serial.report.metadata

    def test_spec_parameter_change_forces_recompute(self):
        old_jobs = jobs_for(SETS)
        new_jobs = jobs_for(SETS)
        new_jobs[0] = AuditJob(
            depdb=new_jobs[0].depdb,
            spec=sampling_spec("P0", "P1", rounds=5_000),
        )
        engine = AuditEngine()
        engine.audit_delta(None, old_jobs)
        outcome = engine.audit_delta(old_jobs, new_jobs)
        assert outcome.recomputed == ("P0 & P1",)
        changed = outcome.delta.changed[0]
        assert changed.spec_changed and changed.delta.is_noop

    def test_added_and_removed_deployments(self):
        old_jobs = jobs_for(SETS)
        engine = AuditEngine()
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
        # The engine's result cache stays warm across calls; feeding
        # new_graphs back skips the old-side rebuild entirely.
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
            AuditEngine().audit_delta(None, jobs)

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
        engine = AuditEngine()
        engine.audit_spec(depdb, spec)
        engine.audit_spec(depdb, spec)
        assert engine.cache_info()["audits"]["entries"] == 0
        job = AuditJob(depdb=depdb, spec=spec)
        outcome = engine.audit_delta([job], [job])
        assert outcome.recomputed == ("P0 & P1",)
        assert outcome.reused == ()

    def test_audit_spec_caches_by_structure(self):
        depdb = provider_depdb(SETS)
        engine = AuditEngine()
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

        cold = {flag: audit(AuditEngine(), flag) for flag in (False, True)}
        assert cold[False] != cold[True]  # the early stop is visible
        warm = AuditEngine()
        assert audit(warm, first) == cold[first]
        assert audit(warm, not first) == cold[not first]
