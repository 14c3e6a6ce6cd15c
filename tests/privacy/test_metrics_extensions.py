"""Unit tests for n-of-m PIA audits."""

import pytest

from repro.errors import ProtocolError
from repro.privacy import PIAAuditor


class TestNOfMAudit:
    SETS = {
        "C1": ["x", "a1", "a2"],
        "C2": ["x", "b1"],
        "C3": ["x", "c1", "c2", "c3"],
        "C4": ["y1", "y2"],
    }

    def test_entries_cover_n_subsets_plus_full_pool(self):
        auditor = PIAAuditor(self.SETS, protocol="plaintext")
        report = auditor.audit_n_of_m(2, providers=list(self.SETS))
        deployments = {e.deployment for e in report.entries}
        assert (tuple(self.SETS),) [0] in deployments  # the all-m entry
        assert len(deployments) == 6 + 1  # C(4,2) + full pool

    def test_n_equals_m_has_no_duplicate_entry(self):
        auditor = PIAAuditor(self.SETS, protocol="plaintext")
        report = auditor.audit_n_of_m(4, providers=list(self.SETS))
        assert len(report.entries) == 1

    def test_ranking_ascending(self):
        auditor = PIAAuditor(self.SETS, protocol="plaintext")
        report = auditor.audit_n_of_m(2, providers=list(self.SETS))
        values = [e.jaccard for e in report.entries]
        assert values == sorted(values)
        # C4 shares nothing with C1/C2: a disjoint pair ranks first.
        assert report.best().jaccard == 0.0

    def test_metadata_records_n_and_m(self):
        auditor = PIAAuditor(self.SETS, protocol="plaintext")
        report = auditor.audit_n_of_m(3, providers=list(self.SETS))
        assert report.metadata["n"] == 3
        assert report.metadata["m"] == 4

    def test_invalid_n_rejected(self):
        auditor = PIAAuditor(self.SETS, protocol="plaintext")
        with pytest.raises(ProtocolError):
            auditor.audit_n_of_m(1, providers=list(self.SETS))
        with pytest.raises(ProtocolError):
            auditor.audit_n_of_m(5, providers=list(self.SETS))
