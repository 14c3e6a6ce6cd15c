"""Unit tests for periodic auditing / configuration drift."""

from repro import AuditSpec
from repro.analysis import diff_depdbs, drift_report
from repro.depdb import DepDB, NetworkDependency, SoftwareDependency


def snapshot_v1() -> DepDB:
    db = DepDB()
    db.add(NetworkDependency("S1", "Internet", ("torA", "core1")))
    db.add(NetworkDependency("S2", "Internet", ("torB", "core2")))
    return db


def snapshot_v2_regressed() -> DepDB:
    """An operator re-cabled S2 through torA: shared single point."""
    db = DepDB()
    db.add(NetworkDependency("S1", "Internet", ("torA", "core1")))
    db.add(NetworkDependency("S2", "Internet", ("torA", "core2")))
    return db


class TestDiff:
    def test_empty_diff(self):
        diff = diff_depdbs(snapshot_v1(), snapshot_v1())
        assert diff.is_empty
        assert "0 records added" in diff.summary()

    def test_added_and_removed(self):
        diff = diff_depdbs(snapshot_v1(), snapshot_v2_regressed())
        assert len(diff.added) == 1
        assert len(diff.removed) == 1
        assert diff.added[0].route == ("torA", "core2")
        text = diff.render_text()
        assert "+ " in text and "- " in text

    def test_software_records_diffed(self):
        before = snapshot_v1()
        after = snapshot_v1()
        after.add(SoftwareDependency("Riak", "S1", ("libc6",)))
        diff = diff_depdbs(before, after)
        assert len(diff.added) == 1


class TestDriftReport:
    SPEC = AuditSpec(deployment="S1 & S2", servers=("S1", "S2"))

    def test_regression_detected(self):
        report = drift_report(
            snapshot_v1(), snapshot_v2_regressed(), self.SPEC
        )
        assert report.regressed
        assert frozenset({"device:torA"}) in report.introduced_unexpected
        assert "REGRESSED" in report.summary()
        assert "new unexpected RG" in report.render_text()

    def test_no_change_no_regression(self):
        report = drift_report(snapshot_v1(), snapshot_v1(), self.SPEC)
        assert not report.regressed
        assert not report.introduced_risk_groups
        assert not report.resolved_risk_groups
        assert report.score_before == report.score_after

    def test_improvement_listed_as_resolved(self):
        report = drift_report(
            snapshot_v2_regressed(), snapshot_v1(), self.SPEC
        )
        assert not report.regressed
        assert frozenset({"device:torA"}) in report.resolved_risk_groups

    def test_probabilities_carried_with_weigher(self):
        report = drift_report(
            snapshot_v1(),
            snapshot_v2_regressed(),
            self.SPEC,
            weigher=lambda kind, ident: 0.1,
        )
        assert report.failure_probability_before is not None
        assert (
            report.failure_probability_after
            > report.failure_probability_before
        )


class TestDriftWithDeltaEngine:
    """Drift events as delta-audit requests (ISSUE 2 wiring)."""

    SPEC = AuditSpec(deployment="S1 & S2", servers=("S1", "S2"))

    def test_engine_backed_drift_matches_plain(self):
        from repro.engine import AuditEngine

        plain = drift_report(
            snapshot_v1(), snapshot_v2_regressed(), self.SPEC
        )
        engineered = drift_report(
            snapshot_v1(),
            snapshot_v2_regressed(),
            self.SPEC,
            engine=AuditEngine(),
        )
        assert engineered.regressed == plain.regressed
        assert (
            engineered.introduced_risk_groups
            == plain.introduced_risk_groups
        )
        assert engineered.resolved_risk_groups == plain.resolved_risk_groups
        assert engineered.score_before == plain.score_before
        assert engineered.score_after == plain.score_after

    def test_warm_engine_reuses_the_previous_period(self):
        from repro.engine import AuditEngine

        engine = AuditEngine()
        drift_report(snapshot_v1(), snapshot_v2_regressed(), self.SPEC,
                     engine=engine)
        before_hits = engine.cache_info()["audits"]["hits"]
        # Next period: v2 (already audited as "after") is now "before" —
        # both snapshots' structures are known, so zero new audits run.
        drift_report(snapshot_v2_regressed(), snapshot_v2_regressed(),
                     self.SPEC, engine=engine)
        info = engine.cache_info()["audits"]
        assert info["hits"] >= before_hits + 2
        assert info["misses"] == 2  # only the two cold audits ever ran

    def test_plain_audit_engine_still_works(self):
        from repro.engine import AuditEngine

        report = drift_report(
            snapshot_v1(),
            snapshot_v2_regressed(),
            self.SPEC,
            engine=AuditEngine(),
        )
        assert report.regressed
