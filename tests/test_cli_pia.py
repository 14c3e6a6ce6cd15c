"""Tests for the `indaas pia` subcommand and the importance helper."""

import json

import pytest

from repro import AuditSpec, SIAAuditor
from repro.cli import main
from repro.depdb import DepDB, NetworkDependency
from repro.errors import AnalysisError


class TestPiaCommand:
    @pytest.fixture
    def sets_file(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(
            json.dumps(
                {
                    "CloudA": ["x", "shared"],
                    "CloudB": ["y", "shared"],
                    "CloudC": ["z"],
                }
            )
        )
        return str(path)

    def test_plaintext_audit(self, sets_file, capsys):
        assert main(["pia", sets_file, "--protocol", "plaintext"]) == 0
        out = capsys.readouterr().out
        assert "CloudA & CloudB" in out
        # The disjoint pair ranks first.
        first_line = [
            line for line in out.splitlines() if line.startswith("1")
        ][0]
        assert "CloudC" in first_line

    def test_psop_audit(self, sets_file, capsys):
        assert main(
            ["pia", sets_file, "--protocol", "psop", "--group-bits", "768"]
        ) == 0
        assert "Jaccard" in capsys.readouterr().out

    def test_three_way(self, sets_file, capsys):
        assert main(
            ["pia", sets_file, "--protocol", "plaintext", "--ways", "3"]
        ) == 0

    def test_workers_do_not_change_json(self, sets_file, capsys):
        outputs = []
        for workers in ("0", "2"):
            assert main(
                [
                    "pia", sets_file, "--protocol", "psop",
                    "--group-bits", "768", "--workers", workers, "--json",
                ]
            ) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["pia", str(path)]) == 1

    def test_non_mapping_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["pia", str(path)]) == 1

    @pytest.mark.parametrize(
        "document",
        [
            # Not Jaccard 0.5 over the characters of each string.
            {"A": "abc", "B": "bcd"},
            {"A": 5, "B": ["x"]},
            {"A": ["x", 7], "B": ["x"]},
            {"A": ["x", ""], "B": ["x"]},
            {"A": [["x"]], "B": ["x"]},
        ],
        ids=["string", "number", "number-inside", "empty-name", "nested"],
    )
    def test_malformed_component_sets(self, document, tmp_path, capsys):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps(document))
        assert main(["pia", str(path), "--protocol", "plaintext"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: provider 'A'")
        assert captured.out == ""


class TestComponentImportanceHelper:
    def make_auditor(self, weigher):
        db = DepDB()
        db.add(NetworkDependency("S1", "Internet", ("tor1", "agg")))
        db.add(NetworkDependency("S2", "Internet", ("tor2", "agg")))
        return SIAAuditor(db, weigher=weigher)

    def test_ranked_entries(self):
        auditor = self.make_auditor(lambda k, i: 0.1)
        entries = auditor.component_importance(
            AuditSpec(deployment="d", servers=("S1", "S2")), top=3
        )
        assert entries[0].component == "device:agg"  # the shared switch
        assert len(entries) == 3

    def test_requires_weigher(self):
        auditor = self.make_auditor(None)
        with pytest.raises(AnalysisError, match="weigher"):
            auditor.component_importance(
                AuditSpec(deployment="d", servers=("S1", "S2"))
            )
