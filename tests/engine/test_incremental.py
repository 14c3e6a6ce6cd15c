"""The incremental delta-audit layer (ISSUE 2 tentpole).

Covers the graph diff (and its equivalence with the structural hash),
bit-identical block/audit reuse in :class:`DeltaAuditEngine`, the
``audit_delta`` spec-set workflow, and the ``WatchService`` poll loop.
"""

import json

import pytest

from repro import AuditSpec, FailureSampler, GateType, RGAlgorithm, SIAAuditor
from repro.core.faultgraph import FaultGraph
from repro.depdb import DepDB
from repro.depdb.records import HardwareDependency
from repro.engine import (
    AuditEngine,
    DeltaAuditEngine,
    WatchService,
    graph_delta,
    load_spec_set,
    structural_hash,
)
from repro.engine.facade import AuditJob
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
        engine.audit_full(old_jobs, title="t")
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

        cold = DeltaAuditEngine().audit_full(new_jobs, title="t")
        assert (
            outcome.report.to_dict()["deployments"]
            == cold.to_dict()["deployments"]
        )

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
        engine.audit_full(old_jobs)
        outcome = engine.audit_delta(old_jobs, new_jobs)
        assert outcome.recomputed == ("P0 & P1",)
        changed = outcome.delta.changed[0]
        assert changed.spec_changed and changed.delta.is_noop

    def test_added_and_removed_deployments(self):
        old_jobs = jobs_for(SETS)
        engine = DeltaAuditEngine()
        engine.audit_full(old_jobs)
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


WATCH_DEPDB = (
    '<src="S1" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S2" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S3" dst="Internet" route="ToR2,Core2"/>\n'
)


def write_watch_dir(tmp_path):
    (tmp_path / "net.depdb").write_text(WATCH_DEPDB)
    (tmp_path / "web.json").write_text(
        json.dumps(
            {
                "name": "web-tier",
                "depdb": "net.depdb",
                "servers": ["S1", "S2"],
                "algorithm": "sampling",
                "rounds": 2000,
                "seed": 0,
            }
        )
    )
    (tmp_path / "db.json").write_text(
        json.dumps(
            {
                "name": "db-tier",
                "depdb": "net.depdb",
                "servers": ["S1", "S3"],
                "algorithm": "sampling",
                "rounds": 2000,
                "seed": 0,
            }
        )
    )
    return tmp_path


class TestWatchService:
    def test_warm_iterations_reuse_everything(self, tmp_path):
        write_watch_dir(tmp_path)
        service = WatchService(tmp_path, interval=0)
        first = service.run_once()
        assert first["seq"] == 1
        assert set(first["delta"]["added"]) == {"db-tier", "web-tier"}
        assert first["recomputed"] and not first["reused"]
        assert set(first["scores"]) == {"db-tier", "web-tier"}
        assert first["best"] == "db-tier"
        assert first["regressions"] == ["web-tier"]

        second = service.run_once()
        assert second["delta"]["noop"] is True
        assert set(second["reused"]) == {"db-tier", "web-tier"}
        assert not second["recomputed"]
        # Identical audit payload; only the reuse metadata moves.
        assert (
            second["report"]["deployments"] == first["report"]["deployments"]
        )

    def test_file_change_recomputes_only_affected(self, tmp_path):
        write_watch_dir(tmp_path)
        service = WatchService(tmp_path, interval=0)
        service.run_once()
        # Re-route S3: only db-tier depends on it.
        (tmp_path / "net.depdb").write_text(
            WATCH_DEPDB.replace("ToR2,Core2", "ToR9,Core2")
        )
        report = service.run_once()
        assert report["recomputed"] == ["db-tier"]
        assert report["reused"] == ["web-tier"]
        changed = report["delta"]["changed"]
        assert [c["deployment"] for c in changed] == ["db-tier"]
        assert "device:ToR9" in changed[0]["graph"]["added"]

    def test_spec_errors_are_reported_not_fatal(self, tmp_path):
        service = WatchService(tmp_path / "missing", interval=0)
        report = service.run_once()
        assert "error" in report and report["seq"] == 1
        # The loop keeps going after an error iteration.
        seen = []
        service.run(iterations=2, emit=seen.append)
        assert [r["seq"] for r in seen] == [2, 3]
        assert all("error" in r for r in seen)

    def test_mistyped_spec_field_is_survivable(self, tmp_path):
        write_watch_dir(tmp_path)
        service = WatchService(tmp_path, interval=0)
        assert "error" not in service.run_once()
        payload = json.loads((tmp_path / "db.json").read_text())
        payload["required"] = "1"  # wrong JSON type, valid JSON
        (tmp_path / "db.json").write_text(json.dumps(payload))
        broken = service.run_once()
        assert "error" in broken and "required" in broken["error"]

    def test_half_written_depdb_is_survivable(self, tmp_path):
        """Any IndaasError mid-poll (here: DependencyDataError from a
        truncated DepDB being rewritten) must yield an error line, and
        the service must recover on the next poll."""
        write_watch_dir(tmp_path)
        service = WatchService(tmp_path, interval=0)
        assert "error" not in service.run_once()
        (tmp_path / "net.depdb").write_text('<src="S1" dst="Int')
        broken = service.run_once()
        assert "error" in broken and broken["seq"] == 2
        (tmp_path / "net.depdb").write_text(WATCH_DEPDB)
        recovered = service.run_once()
        assert "error" not in recovered
        assert set(recovered["reused"]) == {"db-tier", "web-tier"}

    def test_steady_state_rebuilds_nothing(self, tmp_path, monkeypatch):
        """Warm polls with byte-stable files recycle the previous
        iteration's parsed jobs *and* built graphs: no re-parse, no
        rebuild — just stat calls, hash checks and cache hits."""
        from repro.core.audit import SIAAuditor
        from repro.engine import incremental

        write_watch_dir(tmp_path)
        service = WatchService(tmp_path, interval=0)
        service.run_once()
        builds, parses = [], []
        original_build = SIAAuditor.build_graph
        monkeypatch.setattr(
            SIAAuditor,
            "build_graph",
            lambda self, spec: builds.append(spec.deployment)
            or original_build(self, spec),
        )
        original_load = incremental.load_audit_job
        monkeypatch.setattr(
            incremental,
            "load_audit_job",
            lambda path, payload=None: parses.append(str(path))
            or original_load(path, payload=payload),
        )
        steady = service.run_once()
        assert set(steady["reused"]) == {"db-tier", "web-tier"}
        assert builds == [] and parses == []
        # A touched spec file re-parses and rebuilds only itself.
        payload = json.loads((tmp_path / "db.json").read_text())
        (tmp_path / "db.json").write_text(json.dumps(payload))
        after_touch = service.run_once()
        assert [p.endswith("db.json") for p in parses] == [True]
        assert builds == ["db-tier"]
        # Byte-identical content => same structural hash => still reused.
        assert set(after_touch["reused"]) == {"db-tier", "web-tier"}

    def test_errored_poll_cannot_pin_a_stale_graph(self, tmp_path):
        """A file changed during an *errored* iteration must not be
        paired with its pre-change graph once the error clears."""
        write_watch_dir(tmp_path)
        service = WatchService(tmp_path, interval=0)
        assert "error" not in service.run_once()
        # db.json changes content, and the same poll errors because a
        # sibling file duplicates a deployment name.
        payload = json.loads((tmp_path / "db.json").read_text())
        payload["servers"] = ["S2", "S3"]
        (tmp_path / "db.json").write_text(json.dumps(payload))
        (tmp_path / "dup.json").write_text(
            (tmp_path / "web.json").read_text()
        )
        broken = service.run_once()
        assert "error" in broken and "duplicate" in broken["error"]
        (tmp_path / "dup.json").unlink()
        # db.json is byte-stable since the errored poll; the service
        # must audit its NEW content, not replay the pre-change graph.
        recovered = service.run_once()
        assert "error" not in recovered
        assert "db-tier" in recovered["recomputed"]
        cold = DeltaAuditEngine().audit_full(
            load_spec_set(tmp_path), title=service.title
        )
        assert (
            recovered["report"]["deployments"]
            == cold.to_dict()["deployments"]
        )

    def test_compact_mode_skips_report_serialisation(self, tmp_path):
        write_watch_dir(tmp_path)
        service = WatchService(tmp_path, interval=0, include_report=False)
        report = service.run_once()
        assert "report" not in report
        assert set(report["scores"]) == {"db-tier", "web-tier"}

    def test_run_sleeps_between_but_not_after(self, tmp_path):
        write_watch_dir(tmp_path)
        naps = []
        service = WatchService(
            tmp_path, interval=1.5, sleep=naps.append
        )
        count = service.run(iterations=3)
        assert count == 3
        assert naps == [1.5, 1.5]

    def test_accepts_a_base_audit_engine(self, tmp_path):
        """Handing a plain AuditEngine must not crash the service: the
        engine's delta companion (sharing its GraphCache) is used."""
        write_watch_dir(tmp_path)
        base = AuditEngine()
        service = WatchService(tmp_path, engine=base, interval=0)
        assert service.engine is base.delta()
        first = service.run_once()
        assert "error" not in first
        second = service.run_once()
        assert set(second["reused"]) == {"db-tier", "web-tier"}

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(SpecificationError):
            WatchService(tmp_path, interval=-1)
        with pytest.raises(SpecificationError):
            WatchService(tmp_path).run(iterations=0)
