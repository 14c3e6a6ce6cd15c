"""Integration tests for the SIA auditing pipeline."""

import pytest

from repro import (
    AuditSpec,
    DetailLevel,
    RGAlgorithm,
    RankingMethod,
    SIAAuditor,
)
from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.errors import SpecificationError


@pytest.fixture
def depdb() -> DepDB:
    db = DepDB()
    for server in ("S1", "S2"):
        db.add(NetworkDependency(server, "Internet", ("ToR1", "Core1")))
        db.add(NetworkDependency(server, "Internet", ("ToR1", "Core2")))
        db.add(HardwareDependency(server, "Disk", f"{server}-disk"))
        db.add(SoftwareDependency(f"Riak-{server}", server, ("libc6",)))
    db.add(NetworkDependency("S3", "Internet", ("ToR2", "Core1")))
    db.add(NetworkDependency("S3", "Internet", ("ToR2", "Core2")))
    db.add(HardwareDependency("S3", "Disk", "S3-disk"))
    db.add(SoftwareDependency("Riak-S3", "S3", ("libc6",)))
    return db


class TestAuditDeployment:
    def test_minimal_algorithm_finds_shared_tor(self, depdb):
        auditor = SIAAuditor(depdb)
        audit = auditor.audit_deployment(
            AuditSpec(deployment="S1 & S2", servers=("S1", "S2"))
        )
        events = [e.events for e in audit.ranking]
        assert frozenset({"device:ToR1"}) in events
        assert frozenset({"pkg:libc6"}) in events
        assert audit.has_unexpected_risk_groups

    def test_disjoint_tors_have_no_singleton_devices(self, depdb):
        auditor = SIAAuditor(depdb)
        audit = auditor.audit_deployment(
            AuditSpec(deployment="S1 & S3", servers=("S1", "S3"))
        )
        singletons = [e for e in audit.ranking if e.size == 1]
        # libc6 is still shared; the ToRs are not.
        assert [e.events for e in singletons] == [frozenset({"pkg:libc6"})]

    def test_sampling_algorithm_agrees_on_small_graph(self, depdb):
        auditor = SIAAuditor(depdb)
        spec = AuditSpec(
            deployment="S1 & S2",
            servers=("S1", "S2"),
            algorithm=RGAlgorithm.SAMPLING,
            sampling_rounds=4000,
            seed=0,
        )
        sampled = auditor.audit_deployment(spec)
        exact = auditor.audit_deployment(
            AuditSpec(deployment="S1 & S2", servers=("S1", "S2"))
        )
        assert {e.events for e in sampled.ranking} == {
            e.events for e in exact.ranking
        }

    def test_component_set_level_flattens(self, depdb):
        auditor = SIAAuditor(depdb)
        audit = auditor.audit_deployment(
            AuditSpec(
                deployment="S1 & S3",
                servers=("S1", "S3"),
                level=DetailLevel.COMPONENT_SET,
            )
        )
        # Flattening destroys path redundancy: Core1 is now shared and
        # a single point (OR semantics inside each source).
        events = {e.events for e in audit.ranking}
        assert frozenset({"device:Core1"}) in events

    def test_probability_ranking_needs_weights(self, depdb):
        auditor = SIAAuditor(depdb)  # no weigher
        spec = AuditSpec(
            deployment="S1 & S2",
            servers=("S1", "S2"),
            ranking=RankingMethod.PROBABILITY,
        )
        with pytest.raises(Exception):
            auditor.audit_deployment(spec)

    def test_probability_ranking_with_weigher(self, depdb):
        auditor = SIAAuditor(depdb, weigher=lambda kind, ident: 0.1)
        spec = AuditSpec(
            deployment="S1 & S2",
            servers=("S1", "S2"),
            ranking=RankingMethod.PROBABILITY,
        )
        audit = auditor.audit_deployment(spec)
        assert audit.failure_probability is not None
        assert audit.ranking[0].importance is not None
        # importances are sorted descending
        importances = [e.importance for e in audit.ranking]
        assert importances == sorted(importances, reverse=True)

    @pytest.mark.parametrize("ranking", list(RankingMethod))
    def test_failure_probability_is_exact_beyond_twenty_groups(
        self, two_wide_hosts, ranking
    ):
        """Both rankings report the graph diagram's ``Pr(T)`` for the 49
        RGs, not an estimate of it."""
        from repro.core.bdd import compile_graph

        auditor = SIAAuditor(two_wide_hosts, weigher=lambda kind, ident: 0.07)
        spec = AuditSpec(deployment="d", servers=("H1", "H2"), ranking=ranking)
        audit = auditor.audit_deployment(spec)
        assert len(audit.ranking) == 49
        graph = auditor.build_graph(spec)
        assert audit.failure_probability == pytest.approx(
            compile_graph(graph).probability(graph.probabilities()), abs=1e-12
        )

    def test_graph_stats_recorded(self, depdb):
        audit = SIAAuditor(depdb).audit_deployment(
            AuditSpec(deployment="d", servers=("S1",))
        )
        assert audit.graph_stats["events"] > 0


class TestAuditMany:
    def test_compare_combinations(self, depdb):
        auditor = SIAAuditor(depdb, weigher=lambda k, i: 0.1)
        base = AuditSpec(deployment="probe", servers=("S1", "S2"), top_n=3)
        report = auditor.compare_combinations(base, ["S1", "S2", "S3"], ways=2)
        assert len(report.audits) == 3
        names = {a.deployment for a in report.audits}
        assert names == {"S1 & S2", "S1 & S3", "S2 & S3"}
        # S1&S2 share ToR1 -> worst
        assert report.ranked_deployments()[-1].deployment == "S1 & S2"

    def test_mixed_ranking_methods_rejected(self, depdb):
        auditor = SIAAuditor(depdb, weigher=lambda k, i: 0.1)
        specs = [
            AuditSpec(deployment="a", servers=("S1",)),
            AuditSpec(
                deployment="b",
                servers=("S2",),
                ranking=RankingMethod.PROBABILITY,
            ),
        ]
        with pytest.raises(SpecificationError, match="share a ranking"):
            auditor.audit(specs)

    def test_empty_specs_rejected(self, depdb):
        with pytest.raises(SpecificationError):
            SIAAuditor(depdb).audit([])

    def test_invalid_ways(self, depdb):
        base = AuditSpec(deployment="probe", servers=("S1",))
        with pytest.raises(SpecificationError):
            SIAAuditor(depdb).compare_combinations(base, ["S1"], ways=5)
