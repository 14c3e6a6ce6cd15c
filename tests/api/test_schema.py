"""Canonical schema: round trips, validation, content addressing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import SpecificationError

DEPDB = (
    '<src="S1" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S2" dst="Internet" route="ToR1,Core1"/>\n'
)


def request(**overrides) -> api.AuditRequest:
    fields = dict(servers=("S1", "S2"), depdb=DEPDB, seed=7)
    fields.update(overrides)
    return api.AuditRequest(**fields)


class TestEnvelope:
    def test_every_document_kind_carries_the_envelope(self):
        doc = api.envelope("audit_report", {"x": 1})
        assert doc["schema_version"] == api.SCHEMA_VERSION
        assert doc["kind"] == "audit_report"
        assert doc["x"] == 1

    def test_job_event_shape(self):
        event = api.job_event("started", seq=3, job_id="job-1")
        assert event["kind"] == "event"
        assert event["event"] == "started"
        assert event["seq"] == 3

    def test_error_body_shape(self):
        body = api.error_body("overloaded", "busy", tenant="t1")
        assert body["kind"] == "error"
        assert body["error"]["code"] == "overloaded"
        assert body["error"]["tenant"] == "t1"

    def test_canonical_json_is_byte_deterministic(self):
        doc = {"b": 1, "a": {"d": 2, "c": 3}}
        assert api.canonical_json(doc) == api.canonical_json(
            json.loads(json.dumps(doc))
        )
        assert " " not in api.canonical_json(doc)


class TestAuditRequestRoundTrip:
    def test_json_round_trip_is_identity(self):
        original = request(
            algorithm="sampling",
            rounds=5000,
            ranking="probability",
            top_n=4,
            probability=0.2,
            tenant="acme",
            metadata={"client": "alice"},
        )
        restored = api.AuditRequest.from_json(original.to_json())
        assert restored == original
        assert restored.to_json() == original.to_json()

    def test_envelope_fields_present(self):
        payload = request().to_dict()
        assert payload["kind"] == "audit_request"
        assert payload["schema_version"] == api.SCHEMA_VERSION

    def test_deployment_defaults_to_joined_servers(self):
        assert request().deployment == "S1 & S2"

    def test_rejects_wrong_schema_version(self):
        payload = request().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(SpecificationError, match="schema_version"):
            api.AuditRequest.from_dict(payload)

    @pytest.mark.parametrize("missing", ["servers", "depdb"])
    def test_rejects_missing_required_field(self, missing):
        payload = request().to_dict()
        del payload[missing]
        with pytest.raises(SpecificationError, match=missing):
            api.AuditRequest.from_dict(payload)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("rounds", "many"),
            ("seed", "zero"),
            ("metadata", []),
            ("tenant", 7),
            ("depdb", 3),
        ],
    )
    def test_rejects_wrong_types_with_field_name(self, field, bad):
        payload = request().to_dict()
        payload[field] = bad
        with pytest.raises(SpecificationError, match=field):
            api.AuditRequest.from_dict(payload)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_rejects_bad_seeds_on_every_route(self, seed):
        payload = request().to_dict()
        payload["seed"] = seed
        with pytest.raises(SpecificationError, match="seed"):
            api.AuditRequest.from_dict(payload)
        with pytest.raises(SpecificationError, match="seed"):
            api.audit(DEPDB, ("S1", "S2"), algorithm="sampling", seed=seed)

    @pytest.mark.parametrize("probability", [True, 1.5, float("nan"), -0.1, "0.5"])
    def test_rejects_bad_probabilities_on_every_route(self, probability):
        payload = request().to_dict()
        payload["probability"] = probability
        with pytest.raises(SpecificationError, match="probability"):
            api.AuditRequest.from_dict(payload)
        with pytest.raises(SpecificationError, match="probability"):
            request(probability=probability)
        with pytest.raises(SpecificationError, match="probability"):
            api.audit(DEPDB, ("S1", "S2"), probability=probability)

    def test_rejects_bad_algorithm_and_ranking(self):
        with pytest.raises(SpecificationError, match="algorithm"):
            request(algorithm="magic")
        with pytest.raises(SpecificationError, match="ranking"):
            request(ranking="vibes")

    def test_rejects_empty_servers(self):
        with pytest.raises(SpecificationError, match="servers"):
            api.AuditRequest(servers=(), depdb=DEPDB)

    def test_from_json_rejects_non_object(self):
        with pytest.raises(SpecificationError):
            api.AuditRequest.from_json("[1, 2]")


class TestFingerprint:
    def test_stable_across_equal_requests(self):
        assert request().fingerprint() == request().fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 8},
            {"rounds": 9},
            {"depdb": DEPDB + '<src="S3" dst="I" route="T"/>\n'},
            {"servers": ("S1",)},
            {"ranking": "probability"},
        ],
    )
    def test_sensitive_to_output_shaping_fields(self, change):
        assert request().fingerprint() != request(**change).fingerprint()

    def test_insensitive_to_tenant_and_metadata(self):
        plain = request().fingerprint()
        assert request(tenant="acme").fingerprint() == plain
        assert request(metadata={"note": "x"}).fingerprint() == plain
        assert request(base="abc123").fingerprint() == plain

    def test_report_key_ignores_depdb_text_but_not_params(self):
        digest = "d" * 64
        same = api.report_key(digest, request())
        assert api.report_key(digest, request(depdb=DEPDB + "\n# x\n")) == same
        assert api.report_key(digest, request(rounds=9)) != same
        assert api.report_key("e" * 64, request()) != same


class TestAuditReportRoundTrip:
    def make_report(self) -> api.AuditReport:
        return api.AuditReport(
            title="t",
            deployments=[
                {"deployment": "S1 & S2", "score": 0.5, "sources": ["S1"]}
            ],
            ranking_method="size",
            client="alice",
            metadata={"report_key": "k"},
        )

    def test_round_trip_preserves_bytes(self):
        report = self.make_report()
        assert (
            api.AuditReport.from_json(report.to_json()).to_json()
            == report.to_json()
        )

    def test_pre_schema_dict_rejected(self):
        legacy = {
            "title": "t",
            "deployments": [],
            "ranking_method": "size",
            "client": "",
            "metadata": {},
        }
        with pytest.raises(SpecificationError, match="schema_version"):
            api.AuditReport.from_dict(legacy)

    def test_rejects_non_list_deployments(self):
        with pytest.raises(SpecificationError, match="deployments"):
            api.AuditReport.from_dict(
                {"schema_version": 1, "deployments": "nope"}
            )


class TestJobStatus:
    def test_round_trip(self):
        status = api.JobStatus(
            job_id="job-000001",
            state="running",
            tenant="acme",
            deployment="S1 & S2",
            queue_position=None,
            cached=False,
            events=4,
        )
        restored = api.JobStatus.from_json(status.to_json())
        assert restored == status

    def test_terminal_states(self):
        for state in api.JOB_STATES:
            status = api.JobStatus(job_id="j", state=state)
            assert status.is_terminal == (
                state in ("done", "failed", "cancelled")
            )

    def test_requires_job_id_and_state(self):
        with pytest.raises(SpecificationError, match="state"):
            api.JobStatus.from_dict({"schema_version": 1, "job_id": "j"})


_FIELDS = st.fixed_dictionaries(
    {},
    optional={
        "required": st.integers(min_value=1, max_value=2),
        "algorithm": st.sampled_from(["minimal", "sampling"]),
        "rounds": st.integers(min_value=1, max_value=10**6),
        "sample_probability": st.floats(
            min_value=0.01, max_value=0.99, allow_nan=False
        ),
        "ranking": st.sampled_from(["size", "probability"]),
        "top_n": st.one_of(st.none(), st.integers(1, 50)),
        "max_order": st.one_of(st.none(), st.integers(1, 10)),
        "seed": st.one_of(st.none(), st.integers(0, 2**31)),
        "probability": st.one_of(
            st.none(),
            st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        ),
        "tenant": st.text(
            alphabet=st.characters(
                whitelist_categories=("L", "N"), max_codepoint=0x2FF
            ),
            min_size=1,
            max_size=12,
        ),
        "metadata": st.dictionaries(
            st.text(max_size=8), st.text(max_size=16), max_size=3
        ),
    },
)


class TestPropertyRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(fields=_FIELDS)
    def test_any_valid_request_survives_the_wire(self, fields):
        original = request(**fields)
        restored = api.AuditRequest.from_json(original.to_json())
        assert restored == original
        assert restored.fingerprint() == original.fingerprint()
        assert restored.to_json() == original.to_json()
