"""Integration tests for the PIA auditor (Table 2 pipeline)."""

import json

import pytest

from repro.errors import ProtocolError
from repro.privacy import PIAAuditor, pia
from repro.swinventory import CLOUDS, all_stack_packages
from tests.swinventory.oracles import expected_jaccard

SMALL_SETS = {
    "P1": ["a", "b", "c", "shared"],
    "P2": ["d", "e", "shared"],
    "P3": ["f", "shared", "b"],
}


class TestPlaintextProtocol:
    def test_measure_single_deployment(self):
        auditor = PIAAuditor(SMALL_SETS, protocol="plaintext")
        value, estimated, n_bytes = auditor.measure(("P1", "P2"))
        assert value == pytest.approx(1 / 6)
        assert not estimated
        assert n_bytes == 0

    def test_audit_ranks_ascending(self):
        auditor = PIAAuditor(SMALL_SETS, protocol="plaintext")
        report = auditor.audit(ways=2)
        values = [e.jaccard for e in report.entries]
        assert values == sorted(values)
        assert report.best().jaccard == min(values)

    def test_ranks_are_one_based_consecutive(self):
        report = PIAAuditor(SMALL_SETS, protocol="plaintext").audit(ways=2)
        assert [e.rank for e in report.entries] == [1, 2, 3]

    def test_three_way(self):
        report = PIAAuditor(SMALL_SETS, protocol="plaintext").audit(ways=3)
        assert len(report.entries) == 1
        # intersection {shared}; union {a,b,c,d,e,f,shared} -> 1/7
        assert report.entries[0].jaccard == pytest.approx(1 / 7)

    def test_subset_of_providers(self):
        report = PIAAuditor(SMALL_SETS, protocol="plaintext").audit(
            ways=2, providers=["P1", "P2"]
        )
        assert [e.deployment for e in report.entries] == [("P1", "P2")]
        assert report.metadata == {"providers": ["P1", "P2"], "ways": 2}

    def test_explicit_deployments_are_the_only_ones_measured(self):
        auditor = PIAAuditor(SMALL_SETS, protocol="plaintext")
        report = auditor.audit(
            ways=2, deployments=[("P2", "P3"), ("P1", "P2"), ("P2", "P3")]
        )
        assert [e.deployment for e in report.entries] == [
            ("P1", "P2"),  # 1/6
            ("P2", "P3"),  # 1/5
        ]
        every = {e.deployment: e.jaccard for e in auditor.audit(ways=2).entries}
        assert all(every[e.deployment] == e.jaccard for e in report.entries)

    def test_report_serialisation(self):
        report = PIAAuditor(SMALL_SETS, protocol="plaintext").audit(ways=2)
        payload = json.loads(report.to_json())
        assert payload["protocol"] == "plaintext"
        assert len(payload["entries"]) == 3
        text = report.render_text()
        assert "Rank" in text and "P1 & P2" in text


class TestPSOPProtocol:
    @pytest.mark.parametrize("n_workers", [0, 2])
    @pytest.mark.parametrize("ways", [2, 3])
    def test_psop_matches_plaintext(self, ways, n_workers):
        psop = PIAAuditor(
            SMALL_SETS, protocol="psop", group_bits=768, seed=0,
            n_workers=n_workers,
        )
        plain = PIAAuditor(SMALL_SETS, protocol="plaintext")
        p_report = psop.audit(ways=ways)
        t_report = plain.audit(ways=ways)
        assert [e.deployment for e in p_report.entries] == [
            e.deployment for e in t_report.entries
        ]
        for measured, truth in zip(p_report.entries, t_report.entries):
            assert measured.jaccard == pytest.approx(truth.jaccard)
        assert p_report.total_bytes > 0

    def test_minhash_estimates(self, monkeypatch):
        monkeypatch.setattr(pia, "MINHASH_SIZE", 128)
        sets = {
            "A": [f"s{i}" for i in range(60)] + [f"a{i}" for i in range(20)],
            "B": [f"s{i}" for i in range(60)] + [f"b{i}" for i in range(20)],
        }
        auditor = PIAAuditor(
            sets, protocol="psop-minhash", group_bits=768, seed=1
        )
        value, estimated, _ = auditor.measure(("A", "B"))
        assert estimated
        assert value == pytest.approx(60 / 100, abs=0.15)


class TestTable2EndToEnd:
    def test_plaintext_reproduces_table_2_rankings(self):
        auditor = PIAAuditor(all_stack_packages(), protocol="plaintext")
        two = auditor.audit(ways=2, providers=list(CLOUDS))
        assert two.entries[0].deployment == ("Cloud2", "Cloud4")
        assert two.entries[-1].deployment == ("Cloud1", "Cloud2")
        three = auditor.audit(ways=3, providers=list(CLOUDS))
        assert three.entries[0].deployment == ("Cloud2", "Cloud3", "Cloud4")
        for entry in two.entries:
            assert entry.jaccard == pytest.approx(
                expected_jaccard(entry.deployment)
            )

    def test_no_entry_significantly_correlated(self):
        report = PIAAuditor(all_stack_packages(), protocol="plaintext").audit(
            ways=2
        )
        assert not any(e.significantly_correlated for e in report.entries)


class TestValidation:
    def test_needs_two_providers(self):
        with pytest.raises(ProtocolError):
            PIAAuditor({"only": ["x"]})

    def test_unknown_protocol(self):
        with pytest.raises(ProtocolError):
            PIAAuditor(SMALL_SETS, protocol="magic")

    def test_empty_provider_set(self):
        with pytest.raises(ProtocolError):
            PIAAuditor({"A": [], "B": ["x"]})

    @pytest.mark.parametrize(
        "sets",
        [
            [("A", ["x"]), ("B", ["x"])],
            {"A": "abc", "B": "bcd"},
            {"A": 5, "B": ["x"]},
            {"A": ["x", 7], "B": ["x"]},
            {"A": ["x", ""], "B": ["x"]},
            {"A": [["x"]], "B": ["x"]},
        ],
        ids=["pairs", "string", "number", "number-inside", "empty-name",
             "nested"],
    )
    def test_malformed_component_sets(self, sets):
        with pytest.raises(ProtocolError, match="must"):
            PIAAuditor(sets, protocol="plaintext")

    def test_any_iterable_of_names_is_a_component_set(self):
        auditor = PIAAuditor(
            {"A": frozenset({"x", "y"}), "B": (c for c in "xz")},
            protocol="plaintext",
        )
        assert auditor.measure(("A", "B"))[0] == pytest.approx(1 / 3)

    @pytest.mark.parametrize(
        "deployments, message",
        [
            ([("P1", "ghost")], r"\['P1', 'ghost'\] is not 2 distinct"),
            ([("P1", "P3")], r"'P3'\] is not .* out of \['P1', 'P2'\]"),
            ([("P1", "P2", "P1")], "is not 2 distinct providers"),
            ([("P1", "P1")], "is not 2 distinct providers"),
            ([("P1",)], "is not 2 distinct providers"),
        ],
        ids=["unknown", "outside-pool", "three-way", "repeated", "one-way"],
    )
    def test_explicit_deployments_checked(self, deployments, message):
        auditor = PIAAuditor(SMALL_SETS, protocol="plaintext")
        with pytest.raises(ProtocolError, match=message):
            auditor.audit(
                ways=2, providers=["P1", "P2"], deployments=deployments
            )

    def test_measure_unknown_provider(self):
        auditor = PIAAuditor(SMALL_SETS, protocol="plaintext")
        with pytest.raises(ProtocolError, match="unknown providers"):
            auditor.measure(("P1", "ghost"))

    @pytest.mark.parametrize(
        "report",
        [
            lambda auditor, pool: auditor.audit(ways=2, providers=pool),
            lambda auditor, pool: auditor.audit_n_of_m(2, pool),
        ],
        ids=["audit", "audit_n_of_m"],
    )
    def test_unknown_provider_rejected_before_any_measurement(
        self, report, monkeypatch
    ):
        """The whole pool is checked up front: no protocol runs (and no
        pool opens) for the valid pairs ahead of the unknown name."""

        def no_protocol(*args, **kwargs):
            raise AssertionError("PSOPProtocol constructed")

        monkeypatch.setattr("repro.privacy.pia.PSOPProtocol", no_protocol)
        monkeypatch.setattr("repro.privacy.pia._open_pool", no_protocol)
        auditor = PIAAuditor(SMALL_SETS, group_bits=768, n_workers=2)
        with pytest.raises(ProtocolError, match="unknown providers.*ghost"):
            report(auditor, ["P1", "P2", "ghost"])

    def test_measure_single_provider(self):
        auditor = PIAAuditor(SMALL_SETS, protocol="plaintext")
        with pytest.raises(ProtocolError):
            auditor.measure(("P1",))
