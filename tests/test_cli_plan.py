"""Tests for the ``indaas plan`` CLI subcommand."""

import json

import pytest

from repro.cli import main

DEPDB = (
    '<src="S1" dst="Internet" route="tor1,agg1,core1"/>\n'
    '<src="S2" dst="Internet" route="tor2,agg1,core2"/>\n'
)


@pytest.fixture
def depdb_file(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text(DEPDB)
    return str(path)


class TestPlanCommand:
    def test_text_plan(self, depdb_file, capsys):
        code = main(
            ["plan", depdb_file, "--servers", "S1,S2", "--budget", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mitigation plan" in out
        # The shared aggregation switch is the obvious first fix.
        assert "device:agg1" in out
        assert "1." in out

    def test_json_plan(self, depdb_file, capsys):
        code = main(["plan", depdb_file, "--servers", "S1,S2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"][0]["mitigation"]["component"] == "device:agg1"
        assert payload["baseline_probability"] > 0

    def test_top_k(self, depdb_file, capsys):
        code = main(
            ["plan", depdb_file, "--servers", "S1,S2", "--top-k", "3", "--json"]
        )
        assert code == 0
        # One Harden and one Duplicate candidate per component.
        assert json.loads(capsys.readouterr().out)["considered"] == 6

    def test_method_flag_is_gone(self, depdb_file, capsys):
        """There is one exact route; ``--method`` selected nothing a
        plan could show ("identical families, different speed")."""
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["plan", depdb_file, "--servers", "S1,S2", "--method", "bdd"]
            )
        assert exit_info.value.code == 2
        assert "--method" in capsys.readouterr().err

    def test_missing_servers_rejected(self, depdb_file, capsys):
        code = main(["plan", depdb_file, "--servers", " , "])
        assert code == 1
        assert "error" in capsys.readouterr().err
