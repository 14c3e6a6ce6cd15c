"""ServiceClient, and the agent over it, against a live in-process service."""

import pytest

from repro import api
from repro.agents import AuditingAgent, ServiceClient
from repro.errors import ServiceError, SpecificationError
from repro.service import JobManager, ServiceThread

from tests.agents.conftest import lab_request
from tests.service.conftest import make_request


def direct_bytes(request: api.AuditRequest) -> bytes:
    result = api.execute_request(request)
    return (
        api.report_for_request(request, result.audit, result.structural_hash)
        .to_json()
        .encode("utf-8")
    )


class TestServiceClient:
    def test_rejects_non_http_urls(self):
        with pytest.raises(SpecificationError):
            ServiceClient("ftp://somewhere")
        with pytest.raises(SpecificationError):
            ServiceClient("not a url")

    def test_audit_round_trip_is_bit_identical(self, client):
        request = make_request(algorithm="sampling", rounds=2000, seed=61)
        report = client.audit(request, timeout=60)
        assert report.to_json().encode("utf-8") == direct_bytes(request)

    def test_submit_wait_report_by_hand(self, client):
        request = make_request(seed=62)
        submitted = client.submit(request)
        status = client.wait(submitted.job_id, timeout=60)
        assert status.state == "done"
        assert client.report_bytes(job_id=status.job_id) == direct_bytes(
            request
        )
        # And the content-addressed path serves the same bytes.
        assert client.report_bytes(key=status.report_key) == direct_bytes(
            request
        )

    def test_repeat_audit_is_cached_server_side(self, client):
        request = make_request(seed=64)
        client.audit(request, timeout=60)
        snapshot = client.submit(request)
        assert snapshot.state == "done"
        assert snapshot.cached is True

    def test_server_error_maps_to_service_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not-found"

    def test_backpressure_surfaces_retry_after(self):
        handle = ServiceThread(
            JobManager(workers=0, per_tenant_limit=1, total_limit=2)
        ).start()
        try:
            with ServiceClient(handle.url) as remote:
                remote.submit(make_request(seed=71, tenant="acme"))
                with pytest.raises(ServiceError) as excinfo:
                    remote.submit(make_request(seed=72, tenant="acme"))
                assert excinfo.value.status == 429
                assert excinfo.value.code == "tenant-overloaded"
                assert excinfo.value.retry_after >= 1
        finally:
            handle.stop(drain=False)

    def test_unreachable_service_is_503(self):
        with ServiceClient("http://127.0.0.1:1") as remote:
            with pytest.raises(ServiceError) as excinfo:
                remote.health()
        assert excinfo.value.status == 503
        assert excinfo.value.code == "unreachable"

    def test_report_bytes_needs_exactly_one_selector(self, client):
        with pytest.raises(SpecificationError):
            client.report_bytes()
        with pytest.raises(SpecificationError):
            client.report_bytes(job_id="a", key="b")

    def test_cancel_round_trip(self):
        handle = ServiceThread(JobManager(workers=0)).start()
        try:
            with ServiceClient(handle.url) as remote:
                submitted = remote.submit(make_request(seed=73))
                assert remote.cancel(submitted.job_id).state == "cancelled"
        finally:
            handle.stop(drain=False)

    def test_health(self, client):
        health = client.health()
        assert health["kind"] == "health"
        assert health["status"] == "ok"


class TestRemoteAuditingAgent:
    """The one :class:`AuditingAgent` with ``audit=client.audit``."""

    def test_remote_ranking_matches_local_agent(self, client, lab_sources):
        remote = AuditingAgent(lab_sources, audit=client.audit)
        local = AuditingAgent(lab_sources)
        remote_response = remote.handle(lab_request())
        assert remote_response == local.handle(lab_request())
        # S1 & S2 share ToR1/Core1: ranked least independent.
        report = remote_response.report_dict()
        assert report["deployments"][-1]["deployment"] == "S1 & S2"

    def test_remote_report_is_canonical(self, client, lab_sources):
        remote = AuditingAgent(lab_sources, audit=client.audit)
        report = remote.handle(lab_request()).report_dict()
        assert report["kind"] == "audit_report"
        assert report["schema_version"] == api.SCHEMA_VERSION
        assert report["metadata"]["merged_from"] == 3

    def test_pia_mode_is_local_only(self, lab_sources):
        # The P-SOP rounds run between the sources' proxies: a PIA
        # request never reaches the executor, served or not.
        calls = []
        sources = {"lab": lab_sources["lab"], "lab2": lab_sources["lab"]}
        agent = AuditingAgent(sources, audit=calls.append, pia_group_bits=768)
        response = agent.handle(
            lab_request(
                data_sources=("lab", "lab2"),
                deployments=(("lab", "lab2"),),
                mode="pia",
            )
        )
        assert response.mode == "pia"
        assert calls == []

    def test_unknown_sources_rejected(self, client, lab_sources):
        remote = AuditingAgent(lab_sources, audit=client.audit)
        with pytest.raises(SpecificationError, match="unknown data sources"):
            remote.handle(lab_request(data_sources=("ghost",)))

    def test_needs_sources(self, client):
        with pytest.raises(SpecificationError):
            AuditingAgent({}, audit=client.audit)
