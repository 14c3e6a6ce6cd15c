"""Unit tests for the formal exhaustive deployment analysis."""

import pytest

from repro.analysis import formal_analysis
from repro.depdb import DepDB, NetworkDependency
from repro.errors import AnalysisError


@pytest.fixture
def depdb() -> DepDB:
    """Three racks: A and B share nothing; C shares a core with A."""
    db = DepDB()
    db.add(NetworkDependency("RackA", "Internet", ("torA", "core1")))
    db.add(NetworkDependency("RackB", "Internet", ("torB", "core2")))
    db.add(NetworkDependency("RackC", "Internet", ("torC", "core1")))
    return db


class TestFormalAnalysis:
    def test_counts_safe_deployments(self, depdb):
        result = formal_analysis(depdb, ["RackA", "RackB", "RackC"], ways=2)
        assert result.total == 3
        safe_names = {d.name for d in result.safe}
        assert safe_names == {"RackA & RackB", "RackB & RackC"}
        assert result.safe_fraction == pytest.approx(2 / 3)

    def test_unexpected_rgs_identified(self, depdb):
        result = formal_analysis(depdb, ["RackA", "RackC"], ways=2)
        (analysis,) = result.deployments
        assert not analysis.is_safe
        assert frozenset({"device:core1"}) in analysis.unexpected

    def test_lowest_failure_probability(self, depdb):
        result = formal_analysis(
            depdb,
            ["RackA", "RackB", "RackC"],
            ways=2,
            weigher=lambda kind, ident: 0.1,
        )
        best = result.lowest_failure_probability()
        assert best.is_safe
        assert best.failure_probability is not None

    def test_failure_probability_is_exact_beyond_twenty_groups(
        self, two_wide_hosts
    ):
        """Disjoint 7-event servers: 49 RGs, closed form ``(1 - 0.9^7)^2``."""
        result = formal_analysis(
            two_wide_hosts, ["H1", "H2"], weigher=lambda kind, ident: 0.1
        )
        (deployment,) = result.deployments
        assert len(deployment.minimal_rgs) == 49
        assert deployment.failure_probability == pytest.approx(
            (1 - 0.9**7) ** 2, abs=1e-12
        )

    def test_probability_requires_weigher(self, depdb):
        result = formal_analysis(depdb, ["RackA", "RackB"], ways=2)
        with pytest.raises(AnalysisError, match="weigher"):
            result.lowest_failure_probability()

    def test_summary_text(self, depdb):
        result = formal_analysis(
            depdb,
            ["RackA", "RackB", "RackC"],
            ways=2,
            weigher=lambda kind, ident: 0.1,
        )
        summary = result.summary()
        assert "3 candidate" in summary
        assert "lowest failure probability" in summary

    def test_invalid_ways(self, depdb):
        with pytest.raises(AnalysisError):
            formal_analysis(depdb, ["RackA"], ways=2)

    def test_safe_fraction_requires_deployments(self):
        from repro.analysis.formal import FormalAnalysisResult

        with pytest.raises(AnalysisError):
            _ = FormalAnalysisResult(ways=2).safe_fraction
