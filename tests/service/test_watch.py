"""The ``indaas watch`` poll loop (:class:`repro.service.WatchService`)."""

import json

import pytest

from repro.engine import AuditEngine
from repro.errors import SpecificationError
from repro.service import WatchService

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
        from repro.engine.audit import SIAAuditor
        from repro.service import watch

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
        original_load = watch.load_audit_job
        monkeypatch.setattr(
            watch,
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
        cold = AuditEngine().audit_many(tmp_path)
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
        """An injected engine is the one the service audits through:
        its result cache serves the second iteration."""
        write_watch_dir(tmp_path)
        base = AuditEngine()
        service = WatchService(tmp_path, engine=base, interval=0)
        assert service.engine is base
        first = service.run_once()
        assert "error" not in first
        second = service.run_once()
        assert set(second["reused"]) == {"db-tier", "web-tier"}

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(SpecificationError):
            WatchService(tmp_path, interval=-1)
        with pytest.raises(SpecificationError):
            WatchService(tmp_path).run(iterations=0)
