"""The library front doors: repro.audit / audit_delta / plan."""

import json

import pytest

import repro
from repro import RankingMethod, api
from repro.core.report import AuditReport, DeploymentAudit
from repro.engine import AuditEngine
from repro.errors import SpecificationError

DEPDB = (
    '<src="S1" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S2" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S3" dst="Internet" route="ToR2,Core2"/>\n'
)


class TestAuditFrontDoor:
    def test_returns_canonical_report(self):
        report = repro.audit(DEPDB, ["S1", "S2"], seed=1)
        payload = report.to_dict()
        assert payload["kind"] == "audit_report"
        assert payload["schema_version"] == api.SCHEMA_VERSION
        assert payload["deployments"][0]["deployment"] == "S1 & S2"
        assert "structural_hash" in payload["metadata"]
        assert "report_key" in payload["metadata"]

    def test_repeat_audits_are_bit_identical(self):
        first = repro.audit(DEPDB, ["S1", "S3"], seed=9)
        second = repro.audit(DEPDB, ["S1", "S3"], seed=9)
        assert first.to_json() == second.to_json()

    def test_audit_is_run_request_of_the_equivalent_request(self):
        params = dict(algorithm="sampling", rounds=2000, seed=5, top_n=3)
        request = api.AuditRequest(servers=("S1", "S3"), depdb=DEPDB, **params)
        by_request = api.run_request(request)
        assert repro.audit(DEPDB, ["S1", "S3"], **params).to_json() == (
            by_request.to_json()
        )
        # ... which is execute_request + report_for_request, spelled once.
        result = api.execute_request(request)
        assert by_request == api.report_for_request(
            request, result.audit, result.structural_hash
        )

    def test_sampling_identical_for_any_worker_count(self):
        from repro.engine import AuditEngine

        inline = repro.audit(
            DEPDB, ["S1", "S2"], algorithm="sampling", rounds=2000, seed=3
        )
        fanned = repro.audit(
            DEPDB,
            ["S1", "S2"],
            algorithm="sampling",
            rounds=2000,
            seed=3,
            engine=AuditEngine(n_workers=2),
        )
        assert inline.to_json() == fanned.to_json()

    def test_accepts_depdb_object_and_path(self, tmp_path):
        from repro.depdb import DepDB

        path = tmp_path / "dep.txt"
        path.write_text(DEPDB)
        from_text = repro.audit(DEPDB, ["S1", "S2"], seed=2)
        from_object = repro.audit(DepDB.loads(DEPDB), ["S1", "S2"], seed=2)
        from_path = repro.audit(path, ["S1", "S2"], seed=2)
        # Same bytes in -> same bytes out.
        assert from_text.to_json() == from_path.to_json()
        # A DepDB object re-serialises to normalised dump text: the
        # request fingerprint differs, but the structural report key —
        # and the audit content — do not.
        assert from_object.deployments == from_text.deployments
        assert (
            from_object.metadata["report_key"]
            == from_text.metadata["report_key"]
        )

    @pytest.mark.parametrize("rounds", [1000.0, True, "1000"])
    def test_rejects_non_integer_rounds(self, rounds):
        with pytest.raises(SpecificationError, match="sampling_rounds"):
            repro.audit(DEPDB, ["S1", "S2"], algorithm="sampling", rounds=rounds)

    @pytest.mark.parametrize(
        "field, value",
        [("top_n", 2.5), ("top_n", True), ("max_order", 1.5), ("max_order", True)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        """The keyword routes refuse what ``from_dict`` refuses on the wire."""
        with pytest.raises(SpecificationError, match=field):
            repro.audit(DEPDB, ["S1", "S2"], **{field: value})
        request = api.AuditRequest(
            servers=("S1", "S2"), depdb=DEPDB, **{field: value}
        )
        with pytest.raises(SpecificationError, match=field):
            api.run_request(request)
        with pytest.raises(SpecificationError, match=field):
            api.AuditRequest.from_dict(
                api.AuditRequest(servers=("S1", "S2"), depdb=DEPDB).to_dict()
                | {field: value}
            )

    def test_rejects_unknown_depdb_type(self):
        with pytest.raises(SpecificationError, match="depdb"):
            repro.audit(42, ["S1"])

    def test_delta_engine_serves_repeat_from_cache(self):
        engine = AuditEngine()
        request = api.AuditRequest(servers=("S1", "S2"), depdb=DEPDB, seed=4)
        cold = api.execute_request(request, engine=engine)
        warm = api.execute_request(request, engine=engine)
        assert not cold.engine_cache_hit
        assert warm.engine_cache_hit
        assert (
            api.report_for_request(request, cold.audit, cold.structural_hash)
            .to_json()
            == api.report_for_request(
                request, warm.audit, warm.structural_hash
            ).to_json()
        )


class TestExecuteRequest:
    def test_progress_callback_sees_compile_and_audit(self):
        stages = []
        api.execute_request(
            api.AuditRequest(servers=("S1",), depdb=DEPDB, seed=0),
            progress=lambda stage, **fields: stages.append((stage, fields)),
        )
        assert [s for s, _ in stages] == ["compiled", "audited"]
        assert "structural_hash" in stages[0][1]

    @pytest.mark.parametrize(
        "algorithm, hashes", [("minimal", 1), ("sampling", 2)]
    )
    def test_graph_is_hashed_once_per_request(
        self, monkeypatch, algorithm, hashes
    ):
        """The engine reuses the request's digest; only a sampling audit's
        compile cache hashes the graph again."""
        from repro.engine import cache

        hashed = []
        structural_hash = cache.structural_hash

        def counting(graph):
            hashed.append(graph)
            return structural_hash(graph)

        for module in ("cache", "facade", "pool"):
            monkeypatch.setattr(
                f"repro.engine.{module}.structural_hash", counting
            )
        result = api.execute_request(
            api.AuditRequest(
                servers=("S1", "S3"), depdb=DEPDB, algorithm=algorithm, seed=0
            ),
            engine=AuditEngine(n_workers=1),
        )
        assert len(hashed) == hashes
        assert hashed[0] is result.graph

    def test_base_graph_produces_delta_telemetry_only(self):
        request_a = api.AuditRequest(servers=("S1", "S2"), depdb=DEPDB, seed=0)
        request_b = api.AuditRequest(servers=("S1", "S3"), depdb=DEPDB, seed=0)
        base = api.execute_request(request_a)
        stages = {}
        with_delta = api.execute_request(
            request_b,
            progress=lambda stage, **fields: stages.setdefault(stage, fields),
            base_graph=base.graph,
        )
        assert "delta" in stages["compiled"]
        plain = api.execute_request(request_b)
        assert (
            api.report_for_request(
                request_b, with_delta.audit, with_delta.structural_hash
            ).to_json()
            == api.report_for_request(
                request_b, plain.audit, plain.structural_hash
            ).to_json()
        )


class TestMergeReports:
    def test_merge_matches_single_multi_deployment_ranking(self):
        singles = [
            repro.audit(DEPDB, servers, seed=0)
            for servers in (["S1", "S2"], ["S1", "S3"], ["S2", "S3"])
        ]
        merged = api.merge_reports(singles, title="merged")
        ranked = [d["deployment"] for d in merged.deployments]
        assert ranked[0] in ("S1 & S3", "S2 & S3")
        assert ranked[-1] == "S1 & S2"  # shared ToR1/Core1: least indep.
        assert merged.metadata["merged_from"] == 3

    @pytest.mark.parametrize("method", list(RankingMethod))
    def test_merge_breaks_ties_as_the_multi_deployment_report(self, method):
        # Equal scores: Pr(T) decides, unset counting as 1.0, then the
        # name, which here runs against the Pr(T) order.
        audits = [
            DeploymentAudit(
                deployment=name,
                sources=(f"{name}-1", f"{name}-2"),
                redundancy=2,
                ranking=[],
                score=0.5,
                ranking_method=method,
                failure_probability=probability,
            )
            for name, probability in (
                ("a", None), ("b", 0.3), ("c", 1.0), ("d", 0.3), ("e", None)
            )
        ]
        whole = AuditReport(title="t", audits=audits, ranking_method=method)
        singles = [
            api.AuditReport.from_core(
                AuditReport(title=a.deployment, audits=[a], ranking_method=method)
            )
            for a in reversed(audits)
        ]
        merged = api.merge_reports(singles, title="t")
        assert merged.deployments == api.AuditReport.from_core(whole).deployments
        assert [d["deployment"] for d in merged.deployments] == [
            "b", "d", "a", "c", "e"
        ]

    def test_merge_rejects_mixed_ranking_methods(self):
        a = repro.audit(DEPDB, ["S1", "S2"], seed=0)
        b = repro.audit(DEPDB, ["S1", "S3"], seed=0, ranking="probability",
                        probability=0.1)
        with pytest.raises(SpecificationError, match="mixed"):
            api.merge_reports([a, b], title="broken")

    def test_merge_rejects_empty(self):
        with pytest.raises(SpecificationError):
            api.merge_reports([], title="empty")


class TestAuditDeltaFrontDoor:
    @pytest.fixture
    def spec_dir(self, tmp_path):
        (tmp_path / "net.depdb").write_text(DEPDB)
        for name, servers in (("web", ["S1", "S2"]), ("db", ["S1", "S3"])):
            (tmp_path / f"{name}.json").write_text(
                json.dumps(
                    {
                        "name": f"{name}-tier",
                        "depdb": "net.depdb",
                        "servers": servers,
                        "seed": 0,
                    }
                )
            )
        return tmp_path

    def test_first_run_then_noop_delta(self, spec_dir):
        engine = AuditEngine()
        cold = repro.audit_delta(None, str(spec_dir), engine=engine)
        warm = repro.audit_delta(str(spec_dir), str(spec_dir), engine=engine)
        assert cold.to_dict()["kind"] == "audit_report"
        assert sorted(warm.metadata["reused"]) == ["db-tier", "web-tier"]
        assert warm.metadata["delta"]["noop"] is True
        assert [d["deployment"] for d in cold.deployments] == [
            d["deployment"] for d in warm.deployments
        ]


class TestPlanFrontDoor:
    def test_plan_returns_enveloped_mitigation_plan(self):
        plan = repro.plan(DEPDB, ["S1", "S2"], probability=0.1, top_k=3)
        payload = plan.to_dict()
        assert payload["kind"] == "mitigation_plan"
        assert payload["schema_version"] == api.SCHEMA_VERSION
        assert payload["deployment"] == "S1 & S2"
        assert payload["plan"]
        # The label is the caller's; it names the plan, not the graph.
        labelled = repro.plan(
            DEPDB, ["S1", "S2"], top_k=3, deployment="web & db"
        ).to_dict()
        assert labelled["deployment"] == "web & db"
        assert labelled["plan"] == payload["plan"]


class TestCoreEnvelopes:
    def test_core_report_to_dict_is_enveloped(self):
        report = repro.audit(DEPDB, ["S1", "S2"], seed=0)
        assert report.to_dict()["kind"] == "audit_report"

    def test_pia_report_to_dict_is_enveloped(self):
        from repro.privacy.pia import PIAAuditor

        sets = {"P1": ["a", "b"], "P2": ["b", "c"], "P3": ["d"]}
        report = PIAAuditor(sets, protocol="plaintext").audit(ways=2)
        payload = report.to_dict()
        assert payload["kind"] == "pia_report"
        assert payload["schema_version"] == api.SCHEMA_VERSION
        assert payload["entries"]
