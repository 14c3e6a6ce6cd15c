"""The audit-many workflow: spec files, the engine API and the CLI verb."""

import json

import pytest

from repro.cli import main
from repro.engine import AuditEngine
from repro.engine import load_audit_job
from repro.errors import SpecificationError

WEB_DEPDB = (
    '<src="S1" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S2" dst="Internet" route="ToR1,Core1"/>\n'
)
DB_DEPDB = (
    '<src="S3" dst="Internet" route="ToR2,Core1"/>\n'
    '<src="S4" dst="Internet" route="ToR3,Core2"/>\n'
)


@pytest.fixture
def spec_dir(tmp_path):
    (tmp_path / "web.depdb").write_text(WEB_DEPDB)
    (tmp_path / "db.depdb").write_text(DB_DEPDB)
    (tmp_path / "web.json").write_text(
        json.dumps(
            {
                "name": "web-tier",
                "depdb": "web.depdb",
                "servers": ["S1", "S2"],
                "algorithm": "sampling",
                "rounds": 4000,
                "seed": 0,
            }
        )
    )
    (tmp_path / "db.json").write_text(
        json.dumps(
            {
                "name": "db-tier",
                "depdb": "db.depdb",
                "servers": ["S3", "S4"],
                "probability": 0.1,
            }
        )
    )
    return tmp_path


class TestLoadAuditJob:
    def test_loads_spec(self, spec_dir):
        job = load_audit_job(spec_dir / "db.json")
        assert job.spec.deployment == "db-tier"
        assert job.spec.servers == ("S3", "S4")
        assert job.probability == 0.1

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"servers": ["S1"]}))
        with pytest.raises(SpecificationError, match="depdb"):
            load_audit_job(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecificationError, match="invalid JSON"):
            load_audit_job(path)

    def test_bad_algorithm(self, spec_dir):
        path = spec_dir / "bad.json"
        path.write_text(
            json.dumps(
                {"depdb": "web.depdb", "servers": ["S1"], "algorithm": "x"}
            )
        )
        with pytest.raises(SpecificationError, match="algorithm"):
            load_audit_job(path)

    def test_missing_spec_file(self, tmp_path):
        # An explicit path list bypasses the directory glob, so a typo'd
        # path must still surface as a clean SpecificationError.
        with pytest.raises(SpecificationError, match="cannot read spec"):
            AuditEngine().audit_many([tmp_path / "typo.json"])

    def test_missing_depdb_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"depdb": "absent.depdb", "servers": ["S1"]})
        )
        with pytest.raises(SpecificationError, match="cannot read"):
            load_audit_job(path)

    @pytest.mark.parametrize(
        "overrides,complaint",
        [
            ({"servers": "S1"}, "servers"),
            ({"servers": [1, 2]}, "servers"),
            ({"required": "1"}, "required"),
            ({"rounds": "100"}, "rounds"),
            ({"rounds": True}, "rounds"),
            ({"seed": "0"}, "seed"),
            ({"sample_probability": "0.5"}, "sample_probability"),
            ({"probability": "0.1"}, "probability"),
            ({"name": 7}, "name"),
        ],
    )
    def test_mistyped_fields_raise_specification_error(
        self, spec_dir, overrides, complaint
    ):
        """Hand-edited spec files must fail as clean SpecificationErrors
        (long-running consumers like ``indaas watch`` survive those), not
        as TypeErrors from deep inside AuditSpec."""
        payload = {"depdb": "web.depdb", "servers": ["S1"], **overrides}
        path = spec_dir / "typed.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SpecificationError, match=complaint):
            load_audit_job(path)


class TestAuditMany:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_directory_audit(self, spec_dir, workers):
        report = AuditEngine(n_workers=workers).audit_many(spec_dir)
        assert {a.deployment for a in report.audits} == {
            "web-tier",
            "db-tier",
        }
        # The shared-ToR deployment must rank below the independent one.
        ranked = report.ranked_deployments()
        assert ranked[0].deployment == "db-tier"
        assert ranked[1].has_unexpected_risk_groups

    def test_worker_count_does_not_change_report(self, spec_dir):
        """Byte-for-byte: the worker count is not in the report."""
        serial = AuditEngine(n_workers=1).audit_many(spec_dir)
        with AuditEngine(n_workers=2) as engine:
            parallel = engine.audit_many(spec_dir)
        assert serial.to_json() == parallel.to_json()
        assert "engine" not in serial.metadata

    def test_explicit_file_list(self, spec_dir):
        report = AuditEngine().audit_many([spec_dir / "db.json"])
        assert len(report.audits) == 1


class TestCliAuditMany:
    def test_text_output(self, spec_dir, capsys):
        assert main(["audit-many", str(spec_dir), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "db-tier" in out and "web-tier" in out
        assert "unexpected risk groups: web-tier" in out

    def test_json_output(self, spec_dir, capsys):
        assert main(["audit-many", str(spec_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["deployments"]) == 2

    def test_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["audit-many", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["audit-many", "d"])
        assert args.workers == -1 and args.top == 5
